use std::fmt;

/// Index of a symbol within a [`crate::SharedObject`]'s symbol table.
///
/// SimISA `call` instructions name their callee by symbol-table index, exactly
/// as real relocatable code names callees through PLT/GOT slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(pub u32);

impl fmt::Display for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// The C-level return type of an exported function, as a development header
/// would declare it.
///
/// The paper's Table 1 is keyed by this classification (`void` / scalar /
/// pointer).  SimObj carries it as optional metadata: the profiler itself
/// never needs it, but the survey experiment does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReturnType {
    /// The function returns nothing.
    Void,
    /// The function returns an integer-like scalar.
    Scalar,
    /// The function returns a pointer.
    Pointer,
}

impl fmt::Display for ReturnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReturnType::Void => "void",
            ReturnType::Scalar => "scalar",
            ReturnType::Pointer => "pointer",
        };
        f.write_str(s)
    }
}

/// Header-style signature information for a function symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FunctionSig {
    /// Declared return type.
    pub return_type: ReturnType,
    /// Number of declared parameters.
    pub arity: u8,
}

impl FunctionSig {
    /// Creates a signature.
    pub fn new(return_type: ReturnType, arity: u8) -> Self {
        Self { return_type, arity }
    }
}

/// How a symbol is defined.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SymbolDef {
    /// Defined in this object: its code lives at the given function index.
    Defined {
        /// Index into the object's function (text) table.
        func_index: u32,
        /// Whether the symbol is visible to other modules (a dynamic export).
        exported: bool,
    },
    /// Imported from another library; resolved by the dynamic linker.
    Import {
        /// Library the import is expected to come from, when known.
        library_hint: Option<String>,
    },
}

/// An entry in a SimObj symbol table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Symbol {
    /// Symbol name.  Empty for stripped local symbols.
    pub name: String,
    /// Definition or import record.
    pub def: SymbolDef,
    /// Optional header-derived signature (exports only, when a development
    /// package is available).
    pub signature: Option<FunctionSig>,
}

impl Symbol {
    /// Returns true if the symbol is an export defined in this object.
    pub fn is_export(&self) -> bool {
        matches!(self.def, SymbolDef::Defined { exported: true, .. })
    }

    /// Returns true if the symbol is defined in this object (exported or not).
    pub fn is_defined(&self) -> bool {
        matches!(self.def, SymbolDef::Defined { .. })
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.def {
            SymbolDef::Defined { exported, .. } => {
                let vis = if *exported { "export" } else { "local" };
                write!(f, "{} ({vis})", self.name)
            }
            SymbolDef::Import { library_hint } => match library_hint {
                Some(lib) => write!(f, "{} (import from {lib})", self.name),
                None => write!(f, "{} (import)", self.name),
            },
        }
    }
}

/// The machine code of one function defined in a SimObj object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FunctionCode {
    /// Encoded SimISA bytes (see `lfi_isa::encode`).
    pub code: Vec<u8>,
}

impl FunctionCode {
    /// Creates a function text section from encoded bytes.
    pub fn new(code: Vec<u8>) -> Self {
        Self { code }
    }

    /// Size of the code, in bytes.
    pub fn size(&self) -> usize {
        self.code.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_classification() {
        let exported = Symbol {
            name: "read".into(),
            def: SymbolDef::Defined { func_index: 0, exported: true },
            signature: Some(FunctionSig::new(ReturnType::Scalar, 3)),
        };
        let local = Symbol {
            name: "helper".into(),
            def: SymbolDef::Defined { func_index: 1, exported: false },
            signature: None,
        };
        let import = Symbol {
            name: "malloc".into(),
            def: SymbolDef::Import { library_hint: Some("libc.so.6".into()) },
            signature: None,
        };
        assert!(exported.is_export() && exported.is_defined());
        assert!(!local.is_export() && local.is_defined());
        assert!(!import.is_export() && !import.is_defined());
    }

    #[test]
    fn display_forms() {
        let s =
            Symbol { name: "close".into(), def: SymbolDef::Defined { func_index: 2, exported: true }, signature: None };
        assert_eq!(s.to_string(), "close (export)");
        let i = Symbol { name: "free".into(), def: SymbolDef::Import { library_hint: None }, signature: None };
        assert_eq!(i.to_string(), "free (import)");
        assert_eq!(SymbolId(4).to_string(), "sym#4");
        assert_eq!(ReturnType::Pointer.to_string(), "pointer");
    }

    #[test]
    fn function_code_size() {
        assert_eq!(FunctionCode::new(vec![1, 2, 3]).size(), 3);
        assert_eq!(FunctionCode::new(Vec::new()).size(), 0);
    }
}
