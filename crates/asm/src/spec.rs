use lfi_isa::Platform;
use lfi_objfile::ReturnType;

/// How an error value comes into being inside the compiled function.
///
/// The mechanism determines which compiler idiom the lowering uses and, in
/// turn, which analysis the LFI profiler must apply to discover the error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorMechanism {
    /// The error constant is assigned directly on some path (`#define`-style
    /// return codes, the common case in §3.1).
    Direct,
    /// The error originates in the kernel: the function issues the given
    /// system call, and on failure negates the raw result into `errno` and
    /// returns -1 (the §3.2 listing).  The set of errno values is a property
    /// of the kernel image, not of this library.
    Syscall {
        /// System call number invoked.
        num: u32,
    },
    /// The error is whatever the named dependent function returns; the
    /// profiler must recurse into the callee (possibly in another library).
    Callee {
        /// Name of the dependent function.
        name: String,
    },
    /// The error value is produced by an *indirect* call, which the static
    /// analysis cannot resolve — a deliberate false-negative generator
    /// matching the paper's discussion of indirect calls.
    IndirectCall,
    /// The error path exists in the code but is guarded by a condition on
    /// hidden state that never holds at run time — a deliberate
    /// false-positive generator matching the paper's "functions that maintain
    /// state from one call to another".
    PhantomGuard,
}

/// A side effect accompanying an error return, beyond `errno`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SideEffectSpec {
    /// A named module-global variable is set to the given value.
    Global {
        /// Name of the global data symbol.
        name: String,
        /// Value stored into it.
        value: i64,
    },
    /// The value is written through a pointer passed as the `arg_index`-th
    /// argument (an output parameter).
    OutputArg {
        /// Index of the pointer argument written through.
        arg_index: u8,
        /// Value stored through it.
        value: i64,
    },
}

/// One fault a function can expose to its caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// The error return value placed in the ABI return location.
    pub retval: i64,
    /// The errno value set alongside the return, if any.
    pub errno: Option<i64>,
    /// Additional side effects applied on this path.
    pub side_effects: Vec<SideEffectSpec>,
    /// How the error value comes into being.
    pub mechanism: ErrorMechanism,
}

impl FaultSpec {
    /// A fault that directly returns `retval`.
    pub fn returning(retval: i64) -> Self {
        Self { retval, errno: None, side_effects: Vec::new(), mechanism: ErrorMechanism::Direct }
    }

    /// A fault whose errno originates from the kernel via the given syscall;
    /// the function returns -1 as in the §3.2 listing.
    pub fn via_syscall(num: u32) -> Self {
        Self { retval: -1, errno: None, side_effects: Vec::new(), mechanism: ErrorMechanism::Syscall { num } }
    }

    /// A fault propagated from the named dependent function.
    pub fn via_callee(name: impl Into<String>) -> Self {
        Self {
            retval: 0,
            errno: None,
            side_effects: Vec::new(),
            mechanism: ErrorMechanism::Callee { name: name.into() },
        }
    }

    /// Sets the errno value stored alongside the return value.
    pub fn with_errno(mut self, errno: i64) -> Self {
        self.errno = Some(errno);
        self
    }

    /// Adds a global-variable side effect.
    pub fn with_global(mut self, name: impl Into<String>, value: i64) -> Self {
        self.side_effects.push(SideEffectSpec::Global { name: name.into(), value });
        self
    }

    /// Adds an output-argument side effect.
    pub fn with_output_arg(mut self, arg_index: u8, value: i64) -> Self {
        self.side_effects.push(SideEffectSpec::OutputArg { arg_index, value });
        self
    }

    /// Marks the fault as reachable only through an indirect call (a
    /// false-negative generator for the profiler).
    pub fn hidden_behind_indirect_call(mut self) -> Self {
        self.mechanism = ErrorMechanism::IndirectCall;
        self
    }

    /// Marks the fault as guarded by never-true hidden state (a false-positive
    /// generator for the profiler).
    pub fn phantom(mut self) -> Self {
        self.mechanism = ErrorMechanism::PhantomGuard;
        self
    }
}

/// Declarative description of one library function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionSpec {
    /// Exported (or local) symbol name.
    pub name: String,
    /// Declared return type, as a development header would state it.
    pub return_type: ReturnType,
    /// Number of declared parameters.
    pub arity: u8,
    /// Whether the symbol is exported from the library.
    pub exported: bool,
    /// Return value on the success path (`None` for `void` functions).
    pub success_retval: Option<i64>,
    /// The faults this function can expose.
    pub faults: Vec<FaultSpec>,
    /// Names of dependent functions called on the success path whose return
    /// values do **not** become this function's return value (pure
    /// dependencies).
    pub plain_calls: Vec<String>,
    /// Whether the function is a short `isFile()`-style boolean predicate
    /// (returns 0/1, exercised by the paper's second heuristic).
    pub boolean_predicate: bool,
    /// Number of do-nothing padding instructions appended to inflate the code
    /// size (used to model large libraries for the efficiency experiment).
    pub padding: usize,
    /// Number of opaque indirect-branch sites included (never executed).
    pub indirect_branches: usize,
    /// Number of indirect call sites whose result is never used (present in
    /// the binary but irrelevant to the return-code analysis).
    pub stray_indirect_calls: usize,
}

impl FunctionSpec {
    /// Creates a spec for a scalar-returning exported function.
    pub fn scalar(name: impl Into<String>, arity: u8) -> Self {
        Self::with_return_type(name, ReturnType::Scalar, arity)
    }

    /// Creates a spec for a pointer-returning exported function.
    pub fn pointer(name: impl Into<String>, arity: u8) -> Self {
        Self::with_return_type(name, ReturnType::Pointer, arity)
    }

    /// Creates a spec for a `void` exported function.
    pub fn void(name: impl Into<String>, arity: u8) -> Self {
        let mut spec = Self::with_return_type(name, ReturnType::Void, arity);
        spec.success_retval = None;
        spec
    }

    fn with_return_type(name: impl Into<String>, return_type: ReturnType, arity: u8) -> Self {
        Self {
            name: name.into(),
            return_type,
            arity,
            exported: true,
            success_retval: Some(0),
            faults: Vec::new(),
            plain_calls: Vec::new(),
            boolean_predicate: false,
            padding: 0,
            indirect_branches: 0,
            stray_indirect_calls: 0,
        }
    }

    /// Sets the success-path return value.
    pub fn success(mut self, retval: i64) -> Self {
        self.success_retval = Some(retval);
        self
    }

    /// Adds a fault.
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.faults.push(fault);
        self
    }

    /// Adds a dependent call whose result is ignored.
    pub fn plain_call(mut self, callee: impl Into<String>) -> Self {
        self.plain_calls.push(callee.into());
        self
    }

    /// Marks the function as a boolean predicate (returns 0 or 1 only).
    pub fn boolean_predicate(mut self) -> Self {
        self.boolean_predicate = true;
        self.success_retval = Some(1);
        self
    }

    /// Marks the function as local (not exported).
    pub fn local(mut self) -> Self {
        self.exported = false;
        self
    }

    /// Appends `n` padding instructions to the body.
    pub fn padded(mut self, n: usize) -> Self {
        self.padding = n;
        self
    }

    /// Includes `n` opaque indirect-branch sites.
    pub fn with_indirect_branches(mut self, n: usize) -> Self {
        self.indirect_branches = n;
        self
    }

    /// Includes `n` indirect call sites whose results are ignored.
    pub fn with_stray_indirect_calls(mut self, n: usize) -> Self {
        self.stray_indirect_calls = n;
        self
    }
}

/// Declarative description of a whole shared library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibrarySpec {
    /// Library file name (e.g. `libc.so.6`).
    pub name: String,
    /// Target platform.
    pub platform: Platform,
    /// Functions defined by the library.
    pub functions: Vec<FunctionSpec>,
    /// Libraries this one depends on.
    pub dependencies: Vec<String>,
    /// Callee names that are imported rather than defined here, mapped to the
    /// library expected to provide them.
    pub imports: Vec<(String, Option<String>)>,
}

impl LibrarySpec {
    /// Creates an empty library spec.
    pub fn new(name: impl Into<String>, platform: Platform) -> Self {
        Self { name: name.into(), platform, functions: Vec::new(), dependencies: Vec::new(), imports: Vec::new() }
    }

    /// Adds a function.
    pub fn function(mut self, spec: FunctionSpec) -> Self {
        self.functions.push(spec);
        self
    }

    /// Adds several functions.
    pub fn functions(mut self, specs: impl IntoIterator<Item = FunctionSpec>) -> Self {
        self.functions.extend(specs);
        self
    }

    /// Records a dependency on another library.
    pub fn dependency(mut self, library: impl Into<String>) -> Self {
        self.dependencies.push(library.into());
        self
    }

    /// Declares an imported symbol provided by another library.
    pub fn import(mut self, symbol: impl Into<String>, library: Option<&str>) -> Self {
        self.imports.push((symbol.into(), library.map(str::to_owned)));
        self
    }

    /// Total number of declared functions.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_builders_set_mechanisms() {
        assert_eq!(FaultSpec::returning(-1).mechanism, ErrorMechanism::Direct);
        assert_eq!(FaultSpec::via_syscall(3).mechanism, ErrorMechanism::Syscall { num: 3 });
        assert_eq!(FaultSpec::via_callee("helper").mechanism, ErrorMechanism::Callee { name: "helper".into() });
        assert_eq!(FaultSpec::returning(-2).hidden_behind_indirect_call().mechanism, ErrorMechanism::IndirectCall);
        assert_eq!(FaultSpec::returning(-3).phantom().mechanism, ErrorMechanism::PhantomGuard);
    }

    #[test]
    fn fault_side_effects_accumulate() {
        let fault = FaultSpec::returning(-1).with_errno(5).with_global("last_error", 5).with_output_arg(1, 0);
        assert_eq!(fault.errno, Some(5));
        assert_eq!(fault.side_effects.len(), 2);
    }

    #[test]
    fn function_spec_defaults() {
        let f = FunctionSpec::scalar("read", 3);
        assert!(f.exported);
        assert_eq!(f.success_retval, Some(0));
        assert_eq!(f.return_type, ReturnType::Scalar);
        let v = FunctionSpec::void("free", 1);
        assert_eq!(v.success_retval, None);
        assert_eq!(v.return_type, ReturnType::Void);
        let b = FunctionSpec::scalar("is_file", 1).boolean_predicate();
        assert!(b.boolean_predicate);
        assert_eq!(b.success_retval, Some(1));
        let l = FunctionSpec::scalar("helper", 0).local();
        assert!(!l.exported);
    }

    #[test]
    fn library_spec_accumulates_functions_and_imports() {
        let lib = LibrarySpec::new("libx.so", Platform::LinuxX86)
            .dependency("libc.so.6")
            .import("malloc", Some("libc.so.6"))
            .function(FunctionSpec::scalar("a", 0))
            .functions(vec![FunctionSpec::scalar("b", 1), FunctionSpec::scalar("c", 2)]);
        assert_eq!(lib.function_count(), 3);
        assert_eq!(lib.dependencies, vec!["libc.so.6".to_owned()]);
        assert_eq!(lib.imports.len(), 1);
    }
}
