//! The Fig. 14 ISA: opcode table, encode/decode round trip, decode
//! errors, display forms, and the micro-executor's XNORM products and
//! bounds checks.

use sachi_bench::reference::bitcell::BitcellTile;
use sachi_bench::reference::isa::{
    FistSubop, Instruction, IsaError, MicroExecutor, FIST_PRIMARY_OPCODE, XNORM_PRIMARY_OPCODE,
};
use sachi_core::encoding::MixedEncoding;
use sachi_ising::spin::Spin;
#[test]
fn fig14_opcode_table() {
    assert_eq!(FIST_PRIMARY_OPCODE, 0xDB);
    assert_eq!(XNORM_PRIMARY_OPCODE, 0x30);
    assert_eq!(FistSubop::DramWrite.secondary_opcode(), 0x00);
    assert_eq!(FistSubop::DramToStorage.secondary_opcode(), 0x01);
    assert_eq!(FistSubop::StorageToCompute.secondary_opcode(), 0x10);
    assert_eq!(
        FistSubop::from_secondary_opcode(0x10),
        Some(FistSubop::StorageToCompute)
    );
    assert_eq!(FistSubop::from_secondary_opcode(0x02), None);
}

#[test]
fn encode_decode_roundtrip() {
    let insns = [
        Instruction::Fist {
            subop: FistSubop::DramToStorage,
            addr: 0x1234,
            len: 96,
        },
        Instruction::Xnorm {
            dest: 3,
            src1: 0x10,
            src2: (2 << 16) | 8,
            bit: 4,
        },
        Instruction::Fist {
            subop: FistSubop::StorageToCompute,
            addr: 0,
            len: 16,
        },
    ];
    let mut bytes = Vec::new();
    for insn in &insns {
        bytes.extend(insn.encode());
    }
    let decoded = Instruction::decode_program(&bytes).unwrap();
    assert_eq!(decoded, insns);
}

#[test]
fn decode_errors() {
    assert_eq!(Instruction::decode(&[]).unwrap_err(), IsaError::Truncated);
    assert_eq!(
        Instruction::decode(&[0xDB, 0x00]).unwrap_err(),
        IsaError::Truncated
    );
    assert_eq!(
        Instruction::decode(&[0xFF; 11]).unwrap_err(),
        IsaError::UnknownOpcode(0xFF)
    );
    assert_eq!(
        Instruction::decode(&[0xDB, 0x7A, 0, 0, 0, 0, 0, 0]).unwrap_err(),
        IsaError::UnknownSubop(0x7A)
    );
    let msg = format!("{}", IsaError::UnknownSubop(0x7A));
    assert!(msg.contains("0x7a"));
}

#[test]
fn display_formats() {
    let f = Instruction::Fist {
        subop: FistSubop::DramWrite,
        addr: 16,
        len: 8,
    };
    assert_eq!(format!("{f}"), "FIST.dram addr=0x10 len=8");
    let x = Instruction::Xnorm {
        dest: 2,
        src1: 1,
        src2: 3,
        bit: 4,
    };
    assert!(format!("{x}").starts_with("XNORM r2"));
}

#[test]
fn micro_executor_computes_xnor_product() {
    // Load an IC into the compute row via DRAM -> storage -> compute,
    // then XNORM it against a spin.
    let enc = MixedEncoding::new(4).unwrap();
    let j = -5i64;
    let j_bits = enc.encode(j).unwrap();
    let mut exec = MicroExecutor::new(64, 64, BitcellTile::new(1, 16));
    // Storage layout: bits 0..4 = IC, bit 8 = spin (sigma = +1 -> 1).
    exec.write_dram(0, &j_bits).unwrap();
    let program = vec![
        Instruction::Fist {
            subop: FistSubop::DramToStorage,
            addr: 0,
            len: 4,
        },
        Instruction::Fist {
            subop: FistSubop::StorageToCompute,
            addr: 0,
            len: 4,
        },
    ];
    exec.run(&program).unwrap();
    // Spin +1 at storage bit 8: image DRAM 0..9 (IC and spin) into the
    // storage array.
    let stage_spin = |exec: &mut MicroExecutor, spin: Spin| {
        exec.write_dram(8, &[spin.bit()]).unwrap();
        exec.execute(Instruction::Fist {
            subop: FistSubop::DramToStorage,
            addr: 0,
            len: 9,
        })
        .unwrap();
    };
    stage_spin(&mut exec, Spin::Up);
    exec.execute(Instruction::Xnorm {
        dest: 1,
        src1: 8,
        src2: 0,
        bit: 4,
    })
    .unwrap();
    assert_eq!(exec.register(1), j); // J * (+1)
    stage_spin(&mut exec, Spin::Down);
    exec.execute(Instruction::Xnorm {
        dest: 2,
        src1: 8,
        src2: 0,
        bit: 4,
    })
    .unwrap();
    assert_eq!(exec.register(2), -j); // J * (-1)
    assert!(exec.tile().stats().compute_accesses >= 2);
}

#[test]
fn micro_executor_bounds_checks() {
    let mut exec = MicroExecutor::new(16, 16, BitcellTile::new(1, 8));
    assert!(exec.write_dram(10, &[true; 10]).is_err());
    assert!(exec
        .execute(Instruction::Fist {
            subop: FistSubop::DramToStorage,
            addr: 12,
            len: 8
        })
        .is_err());
    assert!(exec
        .execute(Instruction::Xnorm {
            dest: 20,
            src1: 0,
            src2: 0,
            bit: 4
        })
        .is_err());
    assert!(exec
        .execute(Instruction::Xnorm {
            dest: 1,
            src1: 99,
            src2: 0,
            bit: 4
        })
        .is_err());
    assert!(exec
        .execute(Instruction::Xnorm {
            dest: 1,
            src1: 0,
            src2: 0,
            bit: 33
        })
        .is_err());
    assert!(exec
        .execute(Instruction::Xnorm {
            dest: 1,
            src1: 0,
            src2: 5 << 16,
            bit: 4
        })
        .is_err());
}
