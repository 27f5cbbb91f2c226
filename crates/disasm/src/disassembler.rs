use lfi_isa::{encode, Platform};
use lfi_objfile::{SharedObject, SymbolDef, SymbolId};

use crate::{Cfg, CodeStats, DisasmError};

/// One function after disassembly: its decoded instructions and its CFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionDisassembly {
    /// Symbol-table index of the function in its object.
    pub symbol: SymbolId,
    /// Symbol name (empty for stripped local symbols).
    pub name: String,
    /// Whether the symbol is exported.
    pub exported: bool,
    /// Size of the encoded code, in bytes.
    pub code_size: usize,
    /// The recovered control flow graph.
    pub cfg: Cfg,
}

/// A fully disassembled shared object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectDisassembly {
    /// Library file name.
    pub library: String,
    /// Platform the object targets.
    pub platform: Platform,
    /// Every defined function (exported and local), in symbol order.
    pub functions: Vec<FunctionDisassembly>,
    /// Total text size in bytes.
    pub code_size: usize,
}

impl ObjectDisassembly {
    /// Finds a disassembled function by name.
    pub fn function(&self, name: &str) -> Option<&FunctionDisassembly> {
        self.functions.iter().find(|f| !f.name.is_empty() && f.name == name)
    }

    /// Finds a disassembled function by symbol id.
    pub fn function_by_symbol(&self, symbol: SymbolId) -> Option<&FunctionDisassembly> {
        self.functions.iter().find(|f| f.symbol == symbol)
    }

    /// Iterates over the exported functions only.
    pub fn exported_functions(&self) -> impl Iterator<Item = &FunctionDisassembly> {
        self.functions.iter().filter(|f| f.exported)
    }

    /// Aggregates branch/call statistics over every disassembled function
    /// (the §3.1 indirect-call and indirect-branch survey).
    pub fn stats(&self) -> CodeStats {
        let mut stats = CodeStats::default();
        for function in &self.functions {
            stats.absorb_function(function.cfg.insts());
        }
        stats
    }
}

/// Decodes SimObj objects into instructions and control flow graphs.
///
/// The paper's profiler drives `objdump`/`dumpbin`; this type plays that role
/// for SimObj.  It is deliberately independent of the profiler so that, as in
/// the paper, "as good a disassembler as is available" can be swapped in.
#[derive(Debug, Clone, Default)]
pub struct Disassembler {
    _private: (),
}

impl Disassembler {
    /// Creates a disassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Disassembles every defined function in the object.
    ///
    /// # Errors
    ///
    /// Returns [`DisasmError::Decode`] if any text section contains malformed
    /// bytes, or [`DisasmError::Object`] if the object is internally
    /// inconsistent.
    pub fn disassemble_object(&self, object: &SharedObject) -> Result<ObjectDisassembly, DisasmError> {
        object.validate()?;
        let mut functions = Vec::new();
        for (index, symbol) in object.symbols().iter().enumerate() {
            let SymbolDef::Defined { exported, .. } = symbol.def else {
                continue;
            };
            let id = SymbolId(index as u32);
            let code = object.code_for(id)?;
            let insts = encode::decode_function(&code.code)
                .map_err(|source| DisasmError::Decode { function: symbol.name.clone(), source })?;
            let cfg = Cfg::build(insts);
            functions.push(FunctionDisassembly {
                symbol: id,
                name: symbol.name.clone(),
                exported,
                code_size: code.size(),
                cfg,
            });
        }
        Ok(ObjectDisassembly {
            library: object.name().to_owned(),
            platform: object.platform(),
            functions,
            code_size: object.code_size(),
        })
    }

    /// Disassembles a single function by name.
    ///
    /// # Errors
    ///
    /// Returns [`DisasmError::Object`] if the symbol is missing or is an
    /// import, and [`DisasmError::Decode`] if its bytes are malformed.
    pub fn disassemble_function(&self, object: &SharedObject, name: &str) -> Result<FunctionDisassembly, DisasmError> {
        let (id, symbol) = object
            .symbol_by_name(name)
            .ok_or_else(|| lfi_objfile::ObjError::UnknownSymbol { name: name.to_owned() })?;
        let code = object.code_for(id)?;
        let insts = encode::decode_function(&code.code)
            .map_err(|source| DisasmError::Decode { function: name.to_owned(), source })?;
        Ok(FunctionDisassembly {
            symbol: id,
            name: symbol.name.clone(),
            exported: symbol.is_export(),
            code_size: code.size(),
            cfg: Cfg::build(insts),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_isa::{Cond, Inst, Loc, Operand, Reg};
    use lfi_objfile::ObjectBuilder;

    fn demo_object() -> SharedObject {
        let ret = Loc::Reg(Reg(0));
        ObjectBuilder::new("libdemo.so", Platform::LinuxX86)
            .export(
                "branchy",
                vec![
                    Inst::Cmp { a: Loc::Arg(0), b: Operand::Imm(0) },
                    Inst::JmpCond { cond: Cond::Ne, target: 4 },
                    Inst::MovImm { dst: ret, imm: 0 },
                    Inst::Ret,
                    Inst::MovImm { dst: ret, imm: 5 },
                    Inst::Ret,
                ],
            )
            .local("helper", vec![Inst::Call { sym: 2 }, Inst::Ret])
            .import("malloc", None)
            .build()
    }

    #[test]
    fn disassembles_defined_functions_only() {
        let dis = Disassembler::new().disassemble_object(&demo_object()).unwrap();
        assert_eq!(dis.functions.len(), 2);
        assert_eq!(dis.exported_functions().count(), 1);
        assert!(dis.function("branchy").is_some());
        assert!(dis.function("helper").is_some());
        assert!(dis.function("malloc").is_none());
        assert_eq!(dis.code_size, demo_object().code_size());
    }

    #[test]
    fn cfg_shapes_are_recovered() {
        let dis = Disassembler::new().disassemble_object(&demo_object()).unwrap();
        let branchy = dis.function("branchy").unwrap();
        assert_eq!(branchy.cfg.blocks().len(), 3);
        assert_eq!(branchy.cfg.blocks().iter().filter(|b| b.is_exit).count(), 2);
        assert!(branchy.code_size > 0);
    }

    #[test]
    fn single_function_lookup_and_errors() {
        let dis = Disassembler::new();
        let obj = demo_object();
        let f = dis.disassemble_function(&obj, "helper").unwrap();
        assert!(!f.exported);
        assert!(dis.disassemble_function(&obj, "malloc").is_err());
        assert!(dis.disassemble_function(&obj, "missing").is_err());
    }

    #[test]
    fn stripped_objects_still_disassemble() {
        let dis = Disassembler::new().disassemble_object(&demo_object().stripped()).unwrap();
        assert_eq!(dis.functions.len(), 2);
        // The local symbol lost its name but the export kept it.
        assert!(dis.function("branchy").is_some());
        assert!(dis.function("helper").is_none());
    }

    #[test]
    fn corrupt_code_reports_a_decode_error() {
        let mut obj = demo_object();
        // Corrupt the object through serialization: flip a code byte.
        let mut bytes = obj.to_bytes();
        // Find the first function's code and stomp an opcode with 0xEE.  The
        // code section starts after header/name/deps/data; rather than
        // computing the exact offset we rebuild the object with bogus bytes.
        obj = {
            let _ = &mut bytes;
            ObjectBuilder::new("libbad.so", Platform::LinuxX86).build()
        };
        let _ = obj;
        let bad = {
            // Build an object whose function bytes are invalid by constructing
            // a valid object and then feeding garbage code through from_bytes.
            let good = ObjectBuilder::new("libbad.so", Platform::LinuxX86).export("f", vec![Inst::Ret]).build();
            let mut raw = good.to_bytes();
            // The final sections are symbols; the code byte for `Ret` (0x0f)
            // appears exactly once — replace it with an invalid opcode.
            if let Some(pos) = raw.iter().position(|&b| b == 0x0f) {
                raw[pos] = 0xee;
            }
            SharedObject::from_bytes(&raw).unwrap()
        };
        let err = Disassembler::new().disassemble_object(&bad).unwrap_err();
        assert!(matches!(err, DisasmError::Decode { .. }));
    }

    #[test]
    fn stats_count_calls_and_branches() {
        let dis = Disassembler::new().disassemble_object(&demo_object()).unwrap();
        let stats = dis.stats();
        assert_eq!(stats.functions, 2);
        assert_eq!(stats.direct_calls, 1);
        assert_eq!(stats.conditional_branches, 1);
        assert_eq!(stats.indirect_calls, 0);
        assert_eq!(stats.indirect_branches, 0);
    }
}
