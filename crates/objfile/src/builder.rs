use lfi_isa::{encode, Inst, Platform};

use crate::{DataSymbol, FunctionCode, FunctionSig, ReturnType, SharedObject, Storage, Symbol, SymbolDef};

/// Incrementally constructs a [`SharedObject`].
///
/// The builder is how the `lfi-asm` "library compiler" and the `lfi-corpus`
/// generators assemble synthetic shared objects.  It guarantees that every
/// defined symbol points at a valid text section.
///
/// ```
/// use lfi_isa::{Inst, Platform};
/// use lfi_objfile::ObjectBuilder;
///
/// let obj = ObjectBuilder::new("libempty.so", Platform::LinuxX86).build();
/// assert_eq!(obj.export_count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ObjectBuilder {
    name: String,
    platform: Platform,
    symbols: Vec<Symbol>,
    functions: Vec<FunctionCode>,
    data_symbols: Vec<DataSymbol>,
    dependencies: Vec<String>,
}

impl ObjectBuilder {
    /// Starts building a shared object with the given file name and platform.
    pub fn new(name: impl Into<String>, platform: Platform) -> Self {
        Self {
            name: name.into(),
            platform,
            symbols: Vec::new(),
            functions: Vec::new(),
            data_symbols: Vec::new(),
            dependencies: Vec::new(),
        }
    }

    /// Records a dependency on another library (the `DT_NEEDED` analogue).
    pub fn dependency(mut self, library: impl Into<String>) -> Self {
        self.dependencies.push(library.into());
        self
    }

    /// Declares a named data slot (global or TLS) at the given offset.
    pub fn data_symbol(mut self, name: impl Into<String>, offset: u32, storage: Storage) -> Self {
        self.data_symbols.push(DataSymbol { name: name.into(), offset, storage });
        self
    }

    fn add_function(&mut self, body: &[Inst]) -> u32 {
        let index = self.functions.len() as u32;
        self.functions.push(FunctionCode::new(encode::encode_function(body)));
        index
    }

    /// Adds an exported function with the given body and returns its symbol id.
    pub fn export(self, name: impl Into<String>, body: Vec<Inst>) -> Self {
        self.add_defined(name, body, true, None)
    }

    /// Adds an exported function along with header-style signature metadata.
    pub fn export_with_signature(
        self,
        name: impl Into<String>,
        return_type: ReturnType,
        arity: u8,
        body: Vec<Inst>,
    ) -> Self {
        self.add_defined(name, body, true, Some(FunctionSig::new(return_type, arity)))
    }

    /// Adds a local (non-exported) function, such as an internal helper.
    pub fn local(self, name: impl Into<String>, body: Vec<Inst>) -> Self {
        self.add_defined(name, body, false, None)
    }

    fn add_defined(
        mut self,
        name: impl Into<String>,
        body: Vec<Inst>,
        exported: bool,
        signature: Option<FunctionSig>,
    ) -> Self {
        let func_index = self.add_function(&body);
        self.symbols
            .push(Symbol { name: name.into(), def: SymbolDef::Defined { func_index, exported }, signature });
        self
    }

    /// Adds an imported symbol resolved from another library at link time.
    pub fn import(mut self, name: impl Into<String>, library_hint: Option<&str>) -> Self {
        self.symbols.push(Symbol {
            name: name.into(),
            def: SymbolDef::Import { library_hint: library_hint.map(str::to_owned) },
            signature: None,
        });
        self
    }

    /// Finishes the object.
    pub fn build(self) -> SharedObject {
        let object = SharedObject {
            name: self.name,
            platform: self.platform,
            symbols: self.symbols,
            functions: self.functions,
            data_symbols: self.data_symbols,
            dependencies: self.dependencies,
            stripped: false,
        };
        debug_assert!(object.validate().is_ok(), "ObjectBuilder produced an inconsistent object");
        object
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_isa::{Loc, Reg};

    #[test]
    fn built_object_round_trips_code() {
        let body = vec![Inst::MovImm { dst: Loc::Reg(Reg(0)), imm: 7 }, Inst::Ret];
        let obj = ObjectBuilder::new("lib.so", Platform::LinuxX86).export("seven", body.clone()).build();
        let code = obj.code_for_name("seven").unwrap();
        assert_eq!(encode::decode_function(&code.code).unwrap(), body);
    }

    #[test]
    fn dependencies_and_data_are_preserved() {
        let obj = ObjectBuilder::new("libx.so", Platform::SolarisSparc)
            .dependency("libc.so.1")
            .dependency("libm.so.1")
            .data_symbol("errno", 0x2000, Storage::Tls)
            .build();
        assert_eq!(obj.dependencies(), &["libc.so.1".to_owned(), "libm.so.1".to_owned()]);
        assert_eq!(obj.data_symbols.len(), 1);
        assert_eq!(obj.platform(), Platform::SolarisSparc);
    }
}
