//! Software support: the repurposed `FIST` opcodes and the new `XNORM`
//! instruction (Sec. IV.E, Fig. 14).
//!
//! SACHI's compiler story is deliberately thin: the x86 `FIST` integer
//! store (primary opcode `0xDB`) is repurposed with a *secondary* opcode
//! selecting the data-movement hop, and one new instruction `XNORM
//! DEST, [SRC1], [SRC2], BIT` triggers an in-memory XNOR with `SRC1` the
//! storage-array address driven onto the RWL, `SRC2` the compute-array
//! address, and `BIT` the `J_ij` resolution. This module provides the
//! encoder/decoder and a micro-executor that runs small programs against a
//! bit-level [`BitcellTile`], so the ISA semantics are tested against the
//! same datapath the scalar design oracles pulse.

use super::bitcell::BitcellTile;
use sachi_core::encoding::MixedEncoding;
use std::fmt;

/// Primary opcode of the repurposed `FIST` (x86 `0xDB`).
pub const FIST_PRIMARY_OPCODE: u8 = 0xDB;
/// Primary opcode of the new `XNORM` instruction.
pub const XNORM_PRIMARY_OPCODE: u8 = 0x30;

/// Secondary opcodes of the repurposed `FIST` (Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FistSubop {
    /// `SO = 0x00`: write into DRAM.
    DramWrite,
    /// `SO = 0x01`: DRAM to storage array.
    DramToStorage,
    /// `SO = 0x10`: storage to compute array.
    StorageToCompute,
}

impl FistSubop {
    /// The encoded secondary opcode byte.
    pub fn secondary_opcode(self) -> u8 {
        match self {
            FistSubop::DramWrite => 0x00,
            FistSubop::DramToStorage => 0x01,
            FistSubop::StorageToCompute => 0x10,
        }
    }

    /// Decodes a secondary opcode byte.
    pub fn from_secondary_opcode(so: u8) -> Option<Self> {
        match so {
            0x00 => Some(FistSubop::DramWrite),
            0x01 => Some(FistSubop::DramToStorage),
            0x10 => Some(FistSubop::StorageToCompute),
            _ => None,
        }
    }
}

impl fmt::Display for FistSubop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FistSubop::DramWrite => write!(f, "FIST.dram"),
            FistSubop::DramToStorage => write!(f, "FIST.dram2storage"),
            FistSubop::StorageToCompute => write!(f, "FIST.storage2compute"),
        }
    }
}

/// One SACHI instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// Repurposed `FIST`: move `len` bits starting at bit address `addr`
    /// along the hop selected by `subop`.
    Fist {
        /// Which hop to perform.
        subop: FistSubop,
        /// Source bit address.
        addr: u32,
        /// Number of bits to move.
        len: u16,
    },
    /// `XNORM DEST, [SRC1], [SRC2], BIT`: in-memory XNOR of the
    /// `bit`-bit IC at compute address `src2` against the spin at storage
    /// address `src1`, result (decoded product) into register `dest`.
    Xnorm {
        /// Destination register (0..16).
        dest: u8,
        /// Storage-array bit address of the driving spin.
        src1: u32,
        /// Compute-array address: `row << 16 | column`.
        src2: u32,
        /// `J_ij` resolution in bits.
        bit: u8,
    },
}

/// Errors from instruction decode or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// The byte stream ended mid-instruction.
    Truncated,
    /// Unknown primary opcode.
    UnknownOpcode(u8),
    /// Unknown `FIST` secondary opcode.
    UnknownSubop(u8),
    /// An operand referenced memory out of range.
    OperandOutOfRange(&'static str),
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::Truncated => write!(f, "instruction stream truncated"),
            IsaError::UnknownOpcode(op) => write!(f, "unknown primary opcode {op:#04x}"),
            IsaError::UnknownSubop(so) => write!(f, "unknown FIST secondary opcode {so:#04x}"),
            IsaError::OperandOutOfRange(what) => write!(f, "operand out of range: {what}"),
        }
    }
}

impl std::error::Error for IsaError {}

impl Instruction {
    /// Encodes to bytes.
    pub fn encode(&self) -> Vec<u8> {
        match *self {
            Instruction::Fist { subop, addr, len } => {
                let mut bytes = vec![FIST_PRIMARY_OPCODE, subop.secondary_opcode()];
                bytes.extend_from_slice(&addr.to_le_bytes());
                bytes.extend_from_slice(&len.to_le_bytes());
                bytes
            }
            Instruction::Xnorm {
                dest,
                src1,
                src2,
                bit,
            } => {
                let mut bytes = vec![XNORM_PRIMARY_OPCODE, dest];
                bytes.extend_from_slice(&src1.to_le_bytes());
                bytes.extend_from_slice(&src2.to_le_bytes());
                bytes.push(bit);
                bytes
            }
        }
    }

    /// Decodes one instruction, returning it and the bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError`] on truncation or unknown opcodes.
    pub fn decode(bytes: &[u8]) -> Result<(Instruction, usize), IsaError> {
        let &op = bytes.first().ok_or(IsaError::Truncated)?;
        match op {
            FIST_PRIMARY_OPCODE => {
                if bytes.len() < 8 {
                    return Err(IsaError::Truncated);
                }
                let subop = FistSubop::from_secondary_opcode(bytes[1])
                    .ok_or(IsaError::UnknownSubop(bytes[1]))?;
                let addr = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]);
                let len = u16::from_le_bytes([bytes[6], bytes[7]]);
                Ok((Instruction::Fist { subop, addr, len }, 8))
            }
            XNORM_PRIMARY_OPCODE => {
                if bytes.len() < 11 {
                    return Err(IsaError::Truncated);
                }
                let dest = bytes[1];
                let src1 = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]);
                let src2 = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]);
                let bit = bytes[10];
                Ok((
                    Instruction::Xnorm {
                        dest,
                        src1,
                        src2,
                        bit,
                    },
                    11,
                ))
            }
            other => Err(IsaError::UnknownOpcode(other)),
        }
    }

    /// Decodes a whole program.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError`] on the first malformed instruction.
    pub fn decode_program(mut bytes: &[u8]) -> Result<Vec<Instruction>, IsaError> {
        let mut program = Vec::new();
        while !bytes.is_empty() {
            let (insn, used) = Instruction::decode(bytes)?;
            program.push(insn);
            bytes = &bytes[used..];
        }
        Ok(program)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Fist { subop, addr, len } => write!(f, "{subop} addr={addr:#x} len={len}"),
            Instruction::Xnorm {
                dest,
                src1,
                src2,
                bit,
            } => {
                write!(f, "XNORM r{dest}, [{src1:#x}], [{src2:#x}], {bit}")
            }
        }
    }
}

/// A miniature executor wiring the ISA to a real compute tile: DRAM and
/// the storage array are flat bit arrays; `XNORM` pulses the tile.
#[derive(Debug)]
pub struct MicroExecutor {
    dram: Vec<bool>,
    storage: Vec<bool>,
    tile: BitcellTile,
    registers: [i64; 16],
}

impl MicroExecutor {
    /// Creates an executor with the given memory sizes (in bits) and a
    /// compute tile.
    pub fn new(dram_bits: usize, storage_bits: usize, tile: BitcellTile) -> Self {
        MicroExecutor {
            dram: vec![false; dram_bits],
            storage: vec![false; storage_bits],
            tile,
            registers: [0; 16],
        }
    }

    /// Host-side write of input data into DRAM (what `FIST.dram` models;
    /// also available directly for test setup).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::OperandOutOfRange`] if the write exceeds DRAM.
    pub fn write_dram(&mut self, addr: usize, bits: &[bool]) -> Result<(), IsaError> {
        if addr + bits.len() > self.dram.len() {
            return Err(IsaError::OperandOutOfRange("dram write"));
        }
        self.dram[addr..addr + bits.len()].copy_from_slice(bits);
        Ok(())
    }

    /// Register file read.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 16`.
    pub fn register(&self, r: u8) -> i64 {
        self.registers[r as usize]
    }

    /// The compute tile (for inspection).
    pub fn tile(&self) -> &BitcellTile {
        &self.tile
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::OperandOutOfRange`] on bad addresses.
    pub fn execute(&mut self, insn: Instruction) -> Result<(), IsaError> {
        match insn {
            Instruction::Fist { subop, addr, len } => {
                let addr = addr as usize;
                let len = len as usize;
                match subop {
                    FistSubop::DramWrite => {
                        // Zero-fill model of an external store into DRAM.
                        if addr + len > self.dram.len() {
                            return Err(IsaError::OperandOutOfRange("FIST.dram"));
                        }
                        for b in &mut self.dram[addr..addr + len] {
                            *b = false;
                        }
                    }
                    FistSubop::DramToStorage => {
                        if addr + len > self.dram.len() || len > self.storage.len() {
                            return Err(IsaError::OperandOutOfRange("FIST.dram2storage"));
                        }
                        let (src, dst) = (addr, 0);
                        for i in 0..len {
                            self.storage[dst + i] = self.dram[src + i];
                        }
                    }
                    FistSubop::StorageToCompute => {
                        if addr + len > self.storage.len() || len > self.tile.cols() {
                            return Err(IsaError::OperandOutOfRange("FIST.storage2compute"));
                        }
                        let bits: Vec<bool> = self.storage[addr..addr + len].to_vec();
                        self.tile
                            .write_row(0, &bits)
                            .map_err(|_| IsaError::OperandOutOfRange("compute row"))?;
                    }
                }
            }
            Instruction::Xnorm {
                dest,
                src1,
                src2,
                bit,
            } => {
                if dest >= 16 {
                    return Err(IsaError::OperandOutOfRange("XNORM dest"));
                }
                let spin = *self
                    .storage
                    .get(src1 as usize)
                    .ok_or(IsaError::OperandOutOfRange("XNORM src1"))?;
                let row = (src2 >> 16) as usize;
                let col = (src2 & 0xFFFF) as usize;
                let r = u32::from(bit);
                let enc =
                    MixedEncoding::new(r).map_err(|_| IsaError::OperandOutOfRange("XNORM bit"))?;
                let out = self
                    .tile
                    .compute_xnor(row, spin, col..col + r as usize)
                    .map_err(|_| IsaError::OperandOutOfRange("XNORM src2"))?;
                let mut value = enc.decode(&out);
                if !spin {
                    value += 1; // eqn. 4's +1 for a -1 spin
                }
                self.registers[dest as usize] = value;
            }
        }
        Ok(())
    }

    /// Executes a program.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError`] from the first failing instruction.
    pub fn run(&mut self, program: &[Instruction]) -> Result<(), IsaError> {
        for &insn in program {
            self.execute(insn)?;
        }
        Ok(())
    }
}
