//! ISA-level integration: a FIST/XNORM program drives a real tuple's
//! `H_σ` computation end-to-end through the micro-executor and matches
//! the mathematical local field.

use sachi::prelude::*;
use sachi_bench::reference::bitcell::BitcellTile;
use sachi_bench::reference::isa::{FistSubop, Instruction, MicroExecutor};

#[test]
fn xnorm_program_computes_a_tuple_local_field() {
    // Tuple: target spin with neighbors (J, σ): (5, +1), (-3, -1), (7, -1),
    // field h = 2.  H_σ = -(5*1 + (-3)*(-1) + 7*(-1) + 2) = -(5 + 3 - 7 + 2) = -3.
    let neighbors: [(i64, Spin); 3] = [(5, Spin::Up), (-3, Spin::Down), (7, Spin::Down)];
    let h_field = 2i64;
    let r = 4u32;
    let enc = MixedEncoding::new(r).unwrap();

    // DRAM image: the current IC's bits live at 0..4, the neighbor spin
    // bits at 128+k. One bulk FIST(DRAM->storage) copy images the whole
    // region into the storage array, then FIST(storage->compute) stages
    // the IC row and XNORM multiplies it against the spin driven from
    // storage address 128+k.
    let mut exec = MicroExecutor::new(256, 256, BitcellTile::new(4, 16));
    for (k, (_, s)) in neighbors.iter().enumerate() {
        exec.write_dram(128 + k, &[s.bit()]).unwrap();
    }

    let mut acc = h_field;
    for (k, (j, s)) in neighbors.iter().enumerate() {
        exec.write_dram(0, &enc.encode(*j).unwrap()).unwrap();
        let program = [
            Instruction::Fist {
                subop: FistSubop::DramToStorage,
                addr: 0,
                len: 132,
            },
            Instruction::Fist {
                subop: FistSubop::StorageToCompute,
                addr: 0,
                len: r as u16,
            },
            Instruction::Xnorm {
                dest: (k + 1) as u8,
                src1: (128 + k) as u32,
                src2: 0,
                bit: r as u8,
            },
        ];
        exec.run(&program).unwrap();
        let product = exec.register((k + 1) as u8);
        assert_eq!(product, j * s.value(), "neighbor {k} product");
        acc += product;
    }

    let h_sigma = -acc;
    assert_eq!(h_sigma, -3);
    // Cross-check against the library's local-field definition via a real
    // graph built from the same tuple.
    let graph = GraphBuilder::new(4)
        .edge(0, 1, 5)
        .edge(0, 2, -3)
        .edge(0, 3, 7)
        .field(0, h_field as i32)
        .build()
        .unwrap();
    let spins = SpinVector::from_spins(&[Spin::Up, neighbors[0].1, neighbors[1].1, neighbors[2].1]);
    assert_eq!(h_sigma, local_field(&graph, &spins, 0));
}

#[test]
fn xnorm_hardware_counters_accumulate() {
    let mut exec = MicroExecutor::new(64, 64, BitcellTile::new(1, 8));
    exec.write_dram(0, &[true, false, true, false]).unwrap();
    exec.write_dram(8, &[true]).unwrap();
    let program = [
        Instruction::Fist {
            subop: FistSubop::DramToStorage,
            addr: 0,
            len: 9,
        },
        Instruction::Fist {
            subop: FistSubop::StorageToCompute,
            addr: 0,
            len: 4,
        },
        Instruction::Xnorm {
            dest: 0,
            src1: 8,
            src2: 0,
            bit: 4,
        },
        Instruction::Xnorm {
            dest: 1,
            src1: 8,
            src2: 0,
            bit: 4,
        },
    ];
    exec.run(&program).unwrap();
    // Two XNORM pulses: two compute accesses, four word-line activations.
    assert_eq!(exec.tile().stats().compute_accesses, 2);
    assert_eq!(exec.tile().stats().rwl_activations, 4);
    assert_eq!(exec.register(0), exec.register(1));
}

#[test]
fn program_bytes_roundtrip_through_decoder() {
    let program = vec![
        Instruction::Fist {
            subop: FistSubop::DramWrite,
            addr: 0,
            len: 64,
        },
        Instruction::Fist {
            subop: FistSubop::DramToStorage,
            addr: 0,
            len: 64,
        },
        Instruction::Fist {
            subop: FistSubop::StorageToCompute,
            addr: 0,
            len: 8,
        },
        Instruction::Xnorm {
            dest: 1,
            src1: 70,
            src2: 0,
            bit: 8,
        },
    ];
    let bytes: Vec<u8> = program.iter().flat_map(|i| i.encode()).collect();
    let decoded = Instruction::decode_program(&bytes).unwrap();
    assert_eq!(decoded, program);
}
