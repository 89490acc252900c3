//! Redundancy elimination: dead-code removal.
//!
//! The paper's Local2 "redundancy elimination". A global backward
//! liveness analysis over the CFG finds pure instructions whose
//! results are never used (these are mostly the register-copy traffic
//! left behind by naive stack lowering, CSE and LICM) and removes
//! them, along with self-moves.

use crate::nir::{NFunc, NInst};
use crate::opt::PassReport;

/// Run the pass (iterates internally to a fixpoint).
pub fn run(func: &mut NFunc) -> PassReport {
    let mut total_units = 0u64;
    let mut changed_any = false;
    // Each sweep may expose more dead code (a dead chain); iterate.
    for _ in 0..8 {
        let (units, changed) = sweep(func);
        total_units += units;
        if changed {
            changed_any = true;
        } else {
            break;
        }
    }
    debug_assert_eq!(func.validate(), Ok(()));
    PassReport {
        work_units: total_units,
        changed: changed_any,
    }
}

fn sweep(func: &mut NFunc) -> (u64, bool) {
    let liveness = func.liveness();
    let mut work_units = liveness.visits;

    // Removal sweep, recomputing liveness within each block backwards.
    let mut removed = false;
    for b in 0..func.blocks.len() {
        let mut live = liveness.live_out(func, b);
        let insts = &mut func.blocks[b].insts;
        let mut keep: Vec<bool> = vec![true; insts.len()];
        for (i, inst) in insts.iter().enumerate().rev() {
            work_units += 1;
            let removable = if inst.is_terminator() {
                false
            } else if let NInst::Mov { d, s } = inst {
                *d == *s || !live.contains(*d)
            } else if inst.is_pure() {
                inst.def().is_some_and(|d| !live.contains(d))
            } else {
                false
            };
            if removable {
                keep[i] = false;
                removed = true;
                // A removed instruction contributes neither defs nor
                // uses to liveness above it.
                continue;
            }
            live.step_back(inst);
        }
        if keep.iter().any(|k| !k) {
            let mut it = keep.iter();
            insts.retain(|_| *it.next().expect("keep mask matches length"));
        }
    }

    (work_units, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Cond, IBin, MethodId};
    use crate::nir::{Block, BlockId, VReg};

    fn func_with(insts: Vec<NInst>) -> NFunc {
        NFunc {
            method: MethodId(0),
            blocks: vec![Block { insts }],
            nregs: 16,
            nlocals: 4,
        }
    }

    #[test]
    fn removes_unused_pure_computation() {
        let mut f = func_with(vec![
            NInst::IBinOp {
                op: IBin::Add,
                d: VReg(5),
                a: VReg(1),
                b: VReg(2),
            },
            NInst::Ret { val: Some(VReg(1)) },
        ]);
        let r = run(&mut f);
        assert!(r.changed);
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn keeps_used_computation() {
        let mut f = func_with(vec![
            NInst::IBinOp {
                op: IBin::Add,
                d: VReg(5),
                a: VReg(1),
                b: VReg(2),
            },
            NInst::Ret { val: Some(VReg(5)) },
        ]);
        let r = run(&mut f);
        assert!(!r.changed);
        assert_eq!(f.blocks[0].insts.len(), 2);
    }

    #[test]
    fn removes_dead_chains() {
        let mut f = func_with(vec![
            NInst::IConst { d: VReg(5), v: 1 },
            NInst::IBinOp {
                op: IBin::Add,
                d: VReg(6),
                a: VReg(5),
                b: VReg(5),
            },
            NInst::Mov {
                d: VReg(7),
                s: VReg(6),
            },
            NInst::Ret { val: Some(VReg(0)) },
        ]);
        run(&mut f);
        assert_eq!(f.blocks[0].insts.len(), 1, "{f}");
    }

    #[test]
    fn removes_self_moves() {
        let mut f = func_with(vec![
            NInst::Mov {
                d: VReg(1),
                s: VReg(1),
            },
            NInst::Ret { val: Some(VReg(1)) },
        ]);
        run(&mut f);
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn keeps_side_effects() {
        let mut f = func_with(vec![
            NInst::AStoreOp {
                arr: VReg(1),
                idx: VReg(2),
                val: VReg(3),
                ty: crate::value::Type::Int,
            },
            NInst::CallOp {
                d: Some(VReg(9)), // result unused but the call stays
                target: MethodId(0),
                args: vec![],
            },
            NInst::Ret { val: None },
        ]);
        let r = run(&mut f);
        assert!(!r.changed);
        assert_eq!(f.blocks[0].insts.len(), 3);
    }

    #[test]
    fn liveness_flows_across_blocks() {
        // r5 defined in b0, used in b2 (via branch through b1):
        // must not be removed.
        let mut f = NFunc {
            method: MethodId(0),
            blocks: vec![
                Block {
                    insts: vec![
                        NInst::IConst { d: VReg(5), v: 3 },
                        NInst::Jmp { target: BlockId(1) },
                    ],
                },
                Block {
                    insts: vec![NInst::BrCond {
                        cond: Cond::Eq,
                        a: VReg(0),
                        b: VReg(0),
                        then_: BlockId(2),
                        else_: BlockId(2),
                    }],
                },
                Block {
                    insts: vec![NInst::Ret { val: Some(VReg(5)) }],
                },
            ],
            nregs: 6,
            nlocals: 1,
        };
        let r = run(&mut f);
        assert!(!r.changed);
    }

    #[test]
    fn dead_across_loop_removed_live_kept() {
        // Loop increments r1 (live, returned) and computes a dead r5.
        let mut f = NFunc {
            method: MethodId(0),
            blocks: vec![
                Block {
                    insts: vec![NInst::Jmp { target: BlockId(1) }],
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
                            d: VReg(5),
                            a: VReg(2),
                            b: VReg(3),
                        },
                        NInst::IConst { d: VReg(4), v: 1 },
                        NInst::IBinOp {
                            op: IBin::Add,
                            d: VReg(1),
                            a: VReg(1),
                            b: VReg(4),
                        },
                        NInst::Jmp { target: BlockId(1) },
                    ],
                },
                Block {
                    insts: vec![NInst::Ret { val: Some(VReg(1)) }],
                },
            ],
            nregs: 6,
            nlocals: 4,
        };
        run(&mut f);
        // The dead add of r5 is gone; the induction increment remains.
        let body = &f.blocks[2].insts;
        assert_eq!(body.len(), 3, "{f}");
        assert!(body
            .iter()
            .any(|i| matches!(i, NInst::IBinOp { d: VReg(1), .. })));
    }
}
