//! Fig. 14: software support — the repurposed `FIST` secondary opcodes
//! and the new `XNORM` instruction, printed as the paper's table and then
//! exercised end-to-end on the micro-executor.

use sachi_bench::reference::bitcell::BitcellTile;
use sachi_bench::reference::isa::{
    FistSubop, Instruction, MicroExecutor, FIST_PRIMARY_OPCODE, XNORM_PRIMARY_OPCODE,
};
use sachi_bench::{section, Table};
use sachi_core::encoding::MixedEncoding;
use sachi_ising::spin::Spin;

fn main() {
    section("Fig. 14 - instruction table");
    let mut table = Table::new(["instruction", "primary opcode", "secondary opcode", "usage"]);
    table.row([
        "FIST (repurposed x86)".to_string(),
        format!("{FIST_PRIMARY_OPCODE:#04X}"),
        format!("{:#04X}", FistSubop::DramWrite.secondary_opcode()),
        "DRAM write".to_string(),
    ]);
    table.row([
        "FIST (repurposed x86)".to_string(),
        format!("{FIST_PRIMARY_OPCODE:#04X}"),
        format!("{:#04X}", FistSubop::DramToStorage.secondary_opcode()),
        "DRAM to storage array".to_string(),
    ]);
    table.row([
        "FIST (repurposed x86)".to_string(),
        format!("{FIST_PRIMARY_OPCODE:#04X}"),
        format!("{:#04X}", FistSubop::StorageToCompute.secondary_opcode()),
        "storage to compute array".to_string(),
    ]);
    table.row([
        "XNORM DEST,[SRC1],[SRC2],BIT".to_string(),
        format!("{XNORM_PRIMARY_OPCODE:#04X}"),
        "-".to_string(),
        "in-memory XNOR".to_string(),
    ]);
    table.print();

    section("encoded program");
    let program = vec![
        Instruction::Fist {
            subop: FistSubop::DramToStorage,
            addr: 0,
            len: 9,
        },
        Instruction::Fist {
            subop: FistSubop::StorageToCompute,
            addr: 0,
            len: 8,
        },
        Instruction::Xnorm {
            dest: 1,
            src1: 8,
            src2: 0,
            bit: 8,
        },
    ];
    for insn in &program {
        let bytes = insn.encode();
        let hex: Vec<String> = bytes.iter().map(|b| format!("{b:02X}")).collect();
        println!("  {insn:<45} -> [{}]", hex.join(" "));
    }
    let bytes: Vec<u8> = program.iter().flat_map(|i| i.encode()).collect();
    let decoded = Instruction::decode_program(&bytes).expect("well-formed program");
    assert_eq!(decoded, program);
    println!(
        "  ({} bytes total; decoder round-trips exactly)",
        bytes.len()
    );

    section("execution on the micro-machine");
    let enc = MixedEncoding::new(8).expect("8-bit supported");
    let j = -77i64;
    let mut exec = MicroExecutor::new(64, 64, BitcellTile::new(1, 8));
    exec.write_dram(0, &enc.encode(j).expect("fits 8-bit"))
        .expect("in bounds");
    exec.write_dram(8, &[Spin::Down.bit()]).expect("in bounds");
    exec.run(&program).expect("program executes");
    println!(
        "  J = {j}, σ = -1: XNORM wrote r1 = {} (expected {})",
        exec.register(1),
        -j
    );
    assert_eq!(exec.register(1), -j);
    println!(
        "  tile counters: {} compute accesses, {} RWL pulses, {} RBL discharges",
        exec.tile().stats().compute_accesses,
        exec.tile().stats().rwl_activations,
        exec.tile().stats().rbl_discharges
    );
}
