use std::collections::HashMap;

use lfi_isa::{Cond, Inst, Loc, Operand, Platform, Reg};
use lfi_objfile::{ObjectBuilder, SharedObject, Storage, SymbolId};

use crate::assembler::FnAsm;
use crate::{ErrorMechanism, FaultSpec, FunctionSpec, LibrarySpec, SideEffectSpec};

/// Offset of the hidden function-pointer slot used by indirect-call faults.
const FNPTR_SLOT_OFFSET: u32 = 0x0f00;
/// Offset of the hidden state variable guarding phantom error paths.
const HIDDEN_STATE_OFFSET: u32 = 0x0f08;
/// Magic value the phantom guard compares against (never set at run time).
const PHANTOM_MAGIC: i64 = 0x5a5a;
/// First offset handed out to named global data symbols.
const GLOBAL_BASE_OFFSET: u32 = 0x1000;

/// What actually happens when a compiled function is driven down one path.
///
/// The corpus uses this as execution ground truth: a profiler-reported error
/// is a *true positive* iff some reachable path actually produces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedOutcome {
    /// Whether the path can execute at run time (phantom paths cannot).
    pub reachable: bool,
    /// The constant return value of the path, when it is a constant of this
    /// function.  `None` when the value is propagated from a callee or an
    /// indirect call, or when the function is `void`.
    pub retval: Option<i64>,
    /// Name of the dependent function the return value is propagated from.
    pub propagated_from: Option<String>,
    /// Constant errno value set on this path, if any.
    pub errno: Option<i64>,
    /// System call whose (kernel-determined) error becomes errno on this path.
    pub errno_from_syscall: Option<u32>,
    /// Additional side effects applied on this path.
    pub side_effects: Vec<SideEffectSpec>,
}

impl ExpectedOutcome {
    fn success(retval: Option<i64>) -> Self {
        Self {
            reachable: true,
            retval,
            propagated_from: None,
            errno: None,
            errno_from_syscall: None,
            side_effects: Vec::new(),
        }
    }
}

/// Describes one executable path through a compiled function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathInfo {
    /// The value of argument 0 that steers execution down this path.
    pub selector: i64,
    /// Index into the spec's fault list (`None` for the success path).
    pub fault_index: Option<usize>,
    /// What the path does.
    pub outcome: ExpectedOutcome,
}

/// One function after lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledFunction {
    /// Function name.
    pub name: String,
    /// Symbol id inside the compiled object.
    pub symbol: SymbolId,
    /// The original specification.
    pub spec: FunctionSpec,
    /// Ground-truth path table.
    pub paths: Vec<PathInfo>,
}

/// A compiled library: the binary object plus its ground-truth metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledLibrary {
    /// The SimObj shared object, as the profiler will see it.
    pub object: SharedObject,
    /// Per-function ground truth.
    pub functions: Vec<CompiledFunction>,
    /// Offsets allocated for named global data symbols.
    pub globals: HashMap<String, u32>,
}

impl CompiledLibrary {
    /// Looks up the ground truth for a function by name.
    pub fn function(&self, name: &str) -> Option<&CompiledFunction> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Lowers [`LibrarySpec`]s into SimObj shared objects.
#[derive(Debug, Clone, Default)]
pub struct LibraryCompiler {
    _private: (),
}

impl LibraryCompiler {
    /// Creates a compiler with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles a library specification into a shared object plus ground
    /// truth.
    pub fn compile(&self, spec: &LibrarySpec) -> CompiledLibrary {
        let abi = spec.platform.abi();

        // --- Symbol layout -------------------------------------------------
        // Defined functions occupy symbol ids 0..n-1 in spec order; imports
        // follow.  `call` instructions reference these ids, so the layout is
        // fixed before any body is lowered.
        let mut symbol_ids: HashMap<String, SymbolId> = HashMap::new();
        for (i, f) in spec.functions.iter().enumerate() {
            symbol_ids.insert(f.name.clone(), SymbolId(i as u32));
        }
        let mut imports: Vec<(String, Option<String>)> = Vec::new();
        let intern_import = |name: &str,
                             hint: Option<&str>,
                             symbol_ids: &mut HashMap<String, SymbolId>,
                             imports: &mut Vec<(String, Option<String>)>| {
            if !symbol_ids.contains_key(name) {
                let id = SymbolId((spec.functions.len() + imports.len()) as u32);
                symbol_ids.insert(name.to_owned(), id);
                imports.push((name.to_owned(), hint.map(str::to_owned)));
            }
        };
        for (name, hint) in &spec.imports {
            intern_import(name, hint.as_deref(), &mut symbol_ids, &mut imports);
        }
        for f in &spec.functions {
            for callee in &f.plain_calls {
                intern_import(callee, None, &mut symbol_ids, &mut imports);
            }
            for fault in &f.faults {
                if let ErrorMechanism::Callee { name } = &fault.mechanism {
                    intern_import(name, None, &mut symbol_ids, &mut imports);
                }
            }
        }

        // --- Data layout ---------------------------------------------------
        let mut globals: HashMap<String, u32> = HashMap::new();
        let mut next_global = GLOBAL_BASE_OFFSET;
        for f in &spec.functions {
            for fault in &f.faults {
                for effect in &fault.side_effects {
                    if let SideEffectSpec::Global { name, .. } = effect {
                        globals.entry(name.clone()).or_insert_with(|| {
                            let offset = next_global;
                            next_global += 8;
                            offset
                        });
                    }
                }
            }
        }
        let needs_errno = spec.functions.iter().any(|f| {
            f.faults
                .iter()
                .any(|fault| fault.errno.is_some() || matches!(fault.mechanism, ErrorMechanism::Syscall { .. }))
        });

        // --- Lower every function -------------------------------------------
        let mut builder = ObjectBuilder::new(spec.name.clone(), spec.platform);
        for dep in &spec.dependencies {
            builder = builder.dependency(dep.clone());
        }
        if needs_errno {
            builder = builder.data_symbol("errno", abi.errno_tls_offset(), Storage::Tls);
        }
        for (name, offset) in &globals {
            builder = builder.data_symbol(name.clone(), *offset, Storage::Global);
        }
        builder = builder.data_symbol("__lfi_fnptr", FNPTR_SLOT_OFFSET, Storage::Global).data_symbol(
            "__lfi_hidden_state",
            HIDDEN_STATE_OFFSET,
            Storage::Global,
        );

        let mut compiled_functions = Vec::with_capacity(spec.functions.len());
        for f in &spec.functions {
            let (body, paths) = lower_function(f, spec.platform, &symbol_ids, &globals);
            let symbol = symbol_ids[&f.name];
            compiled_functions.push(CompiledFunction { name: f.name.clone(), symbol, spec: f.clone(), paths });
            builder = if f.exported {
                builder.export_with_signature(f.name.clone(), f.return_type, f.arity, body)
            } else {
                builder.local(f.name.clone(), body)
            };
        }
        for (name, hint) in &imports {
            builder = builder.import(name.clone(), hint.as_deref());
        }

        CompiledLibrary { object: builder.build(), functions: compiled_functions, globals }
    }
}

/// Lowers a single function to SimISA and produces its path table.
fn lower_function(
    spec: &FunctionSpec,
    platform: Platform,
    symbol_ids: &HashMap<String, SymbolId>,
    globals: &HashMap<String, u32>,
) -> (Vec<Inst>, Vec<PathInfo>) {
    let abi = platform.abi();
    let ret = abi.return_loc();
    let pic = abi.pic_base_reg();
    let scratch = Reg(2);
    let ptr_scratch = Reg(4);
    let val_scratch = Reg(5);

    let mut asm = FnAsm::new();
    let mut paths = Vec::new();

    // Dispatch: compare the selector argument against each fault index.
    let fault_labels: Vec<_> = spec.faults.iter().map(|_| asm.declare_label()).collect();
    for (i, label) in fault_labels.iter().enumerate() {
        asm.cmp(Loc::Arg(0), (i + 1) as i64);
        asm.jmp_cond(Cond::Eq, *label);
    }

    // --- Success path ------------------------------------------------------
    for callee in &spec.plain_calls {
        asm.push(Inst::Call { sym: symbol_ids[callee].0 });
    }
    if spec.boolean_predicate {
        // if (arg1 == 0) return 0; else return 1;  — an isFile()-style check.
        let zero_path = asm.declare_label();
        asm.cmp(Loc::Arg(1), 0i64);
        asm.jmp_cond(Cond::Eq, zero_path);
        asm.mov_imm(ret, 1);
        asm.ret();
        asm.bind(zero_path);
        asm.mov_imm(ret, 0);
        asm.ret();
    } else {
        if let Some(v) = spec.success_retval {
            asm.mov_imm(ret, v);
        }
        asm.ret();
    }
    paths.push(PathInfo {
        selector: 0,
        fault_index: None,
        outcome: ExpectedOutcome::success(if spec.boolean_predicate { Some(1) } else { spec.success_retval }),
    });

    // --- Fault paths ---------------------------------------------------------
    for (i, fault) in spec.faults.iter().enumerate() {
        asm.bind(fault_labels[i]);
        let selector = (i + 1) as i64;
        let outcome = lower_fault(
            &mut asm,
            fault,
            spec,
            platform,
            symbol_ids,
            globals,
            LowerRegs { ret, pic, scratch, ptr_scratch, val_scratch },
        );
        paths.push(PathInfo { selector, fault_index: Some(i), outcome });
    }

    // --- Padding -------------------------------------------------------------
    // Dead straight-line code after the final `ret`, used to model large
    // libraries for the profiling-time experiment.  Indirect branch sites are
    // placed here so they show up in the static statistics without ever
    // executing.
    for j in 0..spec.padding {
        asm.mov_imm(Loc::Stack(-(8 * (j as i32 + 1))), j as i64);
    }
    for _ in 0..spec.indirect_branches {
        asm.push(Inst::JmpIndirect { loc: Loc::Reg(Reg(6)) });
    }
    for _ in 0..spec.stray_indirect_calls {
        asm.push(Inst::CallIndirect { loc: Loc::Reg(Reg(6)) });
    }

    (asm.finish(), paths)
}

struct LowerRegs {
    ret: Loc,
    pic: Reg,
    scratch: Reg,
    ptr_scratch: Reg,
    val_scratch: Reg,
}

fn lower_fault(
    asm: &mut FnAsm,
    fault: &FaultSpec,
    spec: &FunctionSpec,
    platform: Platform,
    symbol_ids: &HashMap<String, SymbolId>,
    globals: &HashMap<String, u32>,
    regs: LowerRegs,
) -> ExpectedOutcome {
    let abi = platform.abi();
    let LowerRegs { ret, pic, scratch, ptr_scratch, val_scratch } = regs;

    let emit_side_effects = |asm: &mut FnAsm, fault: &FaultSpec| {
        if let Some(errno) = fault.errno {
            asm.push(Inst::LeaPicBase { dst: pic });
            asm.push(Inst::Store { base: pic, offset: abi.errno_tls_offset() as i32, src: Operand::Imm(errno) });
        }
        for effect in &fault.side_effects {
            match effect {
                SideEffectSpec::Global { name, value } => {
                    let offset = globals[name];
                    asm.push(Inst::LeaPicBase { dst: pic });
                    asm.push(Inst::Store { base: pic, offset: offset as i32, src: Operand::Imm(*value) });
                }
                SideEffectSpec::OutputArg { arg_index, value } => {
                    asm.mov(Loc::Reg(ptr_scratch), Loc::Arg(*arg_index));
                    asm.push(Inst::Store { base: ptr_scratch, offset: 0, src: Operand::Imm(*value) });
                }
            }
        }
    };

    match &fault.mechanism {
        ErrorMechanism::Direct => {
            emit_side_effects(asm, fault);
            if fault.retval % 2 == 0 {
                // Real compilers frequently park the error code in a local and
                // copy it into the return register at the exit block; emitting
                // both shapes keeps the reverse constant propagation honest
                // (and gives the §6.2 hop count something to measure).
                asm.mov_imm(Loc::Stack(-8), fault.retval);
                asm.mov(ret, Loc::Stack(-8));
            } else {
                asm.mov_imm(ret, fault.retval);
            }
            asm.ret();
            ExpectedOutcome {
                reachable: true,
                retval: Some(fault.retval),
                propagated_from: None,
                errno: fault.errno,
                errno_from_syscall: None,
                side_effects: fault.side_effects.clone(),
            }
        }
        ErrorMechanism::Syscall { num } => {
            // The §3.2 listing: issue the syscall, negate its raw (negative)
            // result into errno through the PIC base, and return -1.
            asm.push(Inst::Syscall { num: *num });
            asm.push(Inst::LeaPicBase { dst: pic });
            asm.mov(Loc::Reg(scratch), ret);
            asm.push(Inst::Neg { dst: Loc::Reg(scratch) });
            asm.push(Inst::Store {
                base: pic,
                offset: abi.errno_tls_offset() as i32,
                src: Operand::Loc(Loc::Reg(scratch)),
            });
            emit_side_effects(asm, &FaultSpec { errno: None, ..fault.clone() });
            asm.mov_imm(ret, fault.retval);
            asm.ret();
            ExpectedOutcome {
                reachable: true,
                retval: Some(fault.retval),
                propagated_from: None,
                errno: None,
                errno_from_syscall: Some(*num),
                side_effects: fault.side_effects.clone(),
            }
        }
        ErrorMechanism::Callee { name } => {
            emit_side_effects(asm, fault);
            asm.push(Inst::Call { sym: symbol_ids[name].0 });
            asm.ret();
            ExpectedOutcome {
                reachable: true,
                retval: None,
                propagated_from: Some(name.clone()),
                errno: fault.errno,
                errno_from_syscall: None,
                side_effects: fault.side_effects.clone(),
            }
        }
        ErrorMechanism::IndirectCall => {
            // Fetch a function pointer from module data and call through it;
            // the static analysis cannot resolve the target, so the error
            // value produced here is invisible to the profiler.
            emit_side_effects(asm, fault);
            asm.push(Inst::LeaPicBase { dst: ptr_scratch });
            asm.push(Inst::Load { dst: val_scratch, base: ptr_scratch, offset: FNPTR_SLOT_OFFSET as i32 });
            asm.push(Inst::CallIndirect { loc: Loc::Reg(val_scratch) });
            asm.ret();
            ExpectedOutcome {
                reachable: true,
                retval: Some(fault.retval),
                propagated_from: None,
                errno: fault.errno,
                errno_from_syscall: None,
                side_effects: fault.side_effects.clone(),
            }
        }
        ErrorMechanism::PhantomGuard => {
            // if (hidden_state == MAGIC) return retval; else fall back to the
            // success value.  The magic value is never set at run time, so the
            // error path is statically present but dynamically unreachable.
            let fallback = asm.declare_label();
            asm.push(Inst::LeaPicBase { dst: ptr_scratch });
            asm.push(Inst::Load { dst: val_scratch, base: ptr_scratch, offset: HIDDEN_STATE_OFFSET as i32 });
            asm.cmp(Loc::Reg(val_scratch), PHANTOM_MAGIC);
            asm.jmp_cond(Cond::Ne, fallback);
            emit_side_effects(asm, fault);
            asm.mov_imm(ret, fault.retval);
            asm.ret();
            asm.bind(fallback);
            if let Some(v) = spec.success_retval {
                asm.mov_imm(ret, v);
            }
            asm.ret();
            ExpectedOutcome {
                reachable: false,
                retval: Some(fault.retval),
                propagated_from: None,
                errno: fault.errno,
                errno_from_syscall: None,
                side_effects: fault.side_effects.clone(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_isa::encode::decode_function;
    use lfi_isa::vm::{ConstEnv, FnEnv, Vm};

    fn compile_one(spec: FunctionSpec) -> CompiledLibrary {
        LibraryCompiler::new().compile(&LibrarySpec::new("libtest.so", Platform::LinuxX86).function(spec))
    }

    fn run_path(lib: &CompiledLibrary, name: &str, selector: i64) -> lfi_isa::vm::ExecOutcome {
        let code = lib.object.code_for_name(name).unwrap();
        let body = decode_function(&code.code).unwrap();
        let vm = Vm::new(lib.object.platform());
        vm.run(&body, &[selector, 1, 0, 0], &mut ConstEnv { call_result: 0, syscall_result: -5 })
            .unwrap()
    }

    #[test]
    fn direct_fault_returns_constant_and_sets_errno() {
        let lib = compile_one(FunctionSpec::scalar("f", 1).success(0).fault(FaultSpec::returning(-1).with_errno(9)));
        assert_eq!(run_path(&lib, "f", 0).return_value, 0);
        let out = run_path(&lib, "f", 1);
        assert_eq!(out.return_value, -1);
        let abi = Platform::LinuxX86.abi();
        let errno_writes: Vec<_> = out
            .stores
            .iter()
            .filter(|s| s.module_offset() == Some(abi.errno_tls_offset()))
            .map(|s| s.value)
            .collect();
        assert_eq!(errno_writes, vec![9]);
    }

    #[test]
    fn syscall_fault_uses_negate_idiom() {
        let lib = compile_one(FunctionSpec::scalar("sys_read", 3).success(0).fault(FaultSpec::via_syscall(6)));
        let out = run_path(&lib, "sys_read", 1);
        assert_eq!(out.return_value, -1);
        let abi = Platform::LinuxX86.abi();
        let errno_writes: Vec<_> = out
            .stores
            .iter()
            .filter(|s| s.module_offset() == Some(abi.errno_tls_offset()))
            .map(|s| s.value)
            .collect();
        // ConstEnv returned -5 from the syscall, so errno must be 5.
        assert_eq!(errno_writes, vec![5]);
    }

    #[test]
    fn callee_fault_propagates_the_callee_result() {
        let spec = LibrarySpec::new("libdep.so", Platform::LinuxX86)
            .function(FunctionSpec::scalar("inner", 1).success(0).fault(FaultSpec::returning(-7)))
            .function(FunctionSpec::scalar("outer", 1).success(0).fault(FaultSpec::via_callee("inner")));
        let lib = LibraryCompiler::new().compile(&spec);
        let code = lib.object.code_for_name("outer").unwrap();
        let body = decode_function(&code.code).unwrap();
        let inner_sym = lib.function("inner").unwrap().symbol;
        let mut env = FnEnv::new(
            move |sym| {
                assert_eq!(sym, inner_sym.0);
                Ok(-7)
            },
            |_| 0,
        );
        let out = Vm::new(Platform::LinuxX86).run(&body, &[1], &mut env).unwrap();
        assert_eq!(out.return_value, -7);
        let expected = &lib.function("outer").unwrap().paths[1].outcome;
        assert_eq!(expected.propagated_from.as_deref(), Some("inner"));
    }

    #[test]
    fn phantom_fault_is_unreachable_at_run_time() {
        let lib = compile_one(FunctionSpec::scalar("g", 1).success(0).fault(FaultSpec::returning(-99).phantom()));
        // Driving the phantom selector still produces the success value.
        assert_eq!(run_path(&lib, "g", 1).return_value, 0);
        let path = &lib.function("g").unwrap().paths[1];
        assert!(!path.outcome.reachable);
        assert_eq!(path.outcome.retval, Some(-99));
    }

    #[test]
    fn output_arg_side_effect_writes_through_pointer() {
        let lib = compile_one(
            FunctionSpec::scalar("h", 2)
                .success(0)
                .fault(FaultSpec::returning(-1).with_output_arg(1, 1234)),
        );
        let code = lib.object.code_for_name("h").unwrap();
        let body = decode_function(&code.code).unwrap();
        let vm = Vm::new(Platform::LinuxX86);
        let out = vm.run(&body, &[1, 0x7000], &mut ConstEnv::default()).unwrap();
        assert_eq!(out.return_value, -1);
        assert!(out.stores.iter().any(|s| s.base_value == 0x7000 && s.value == 1234));
    }

    #[test]
    fn boolean_predicate_returns_zero_or_one() {
        let lib = compile_one(FunctionSpec::scalar("is_file", 2).boolean_predicate());
        let code = lib.object.code_for_name("is_file").unwrap();
        let body = decode_function(&code.code).unwrap();
        let vm = Vm::new(Platform::LinuxX86);
        let one = vm.run(&body, &[0, 5], &mut ConstEnv::default()).unwrap();
        let zero = vm.run(&body, &[0, 0], &mut ConstEnv::default()).unwrap();
        assert_eq!(one.return_value, 1);
        assert_eq!(zero.return_value, 0);
    }

    #[test]
    fn padding_inflates_code_size() {
        let small = compile_one(FunctionSpec::scalar("s", 1).success(0));
        let big = compile_one(FunctionSpec::scalar("s", 1).success(0).padded(500));
        assert!(big.object.code_size() > small.object.code_size() + 500);
    }

    #[test]
    fn imports_are_created_for_external_callees() {
        let spec = LibrarySpec::new("libapp.so", Platform::LinuxX86).dependency("libc.so.6").function(
            FunctionSpec::scalar("wrapper", 1)
                .success(0)
                .fault(FaultSpec::via_callee("read"))
                .plain_call("close"),
        );
        let lib = LibraryCompiler::new().compile(&spec);
        let (_, read_sym) = lib.object.symbol_by_name("read").unwrap();
        let (_, close_sym) = lib.object.symbol_by_name("close").unwrap();
        assert!(!read_sym.is_defined());
        assert!(!close_sym.is_defined());
        assert!(lib.object.validate().is_ok());
    }

    #[test]
    fn globals_get_distinct_offsets() {
        let lib = compile_one(
            FunctionSpec::scalar("multi", 1)
                .success(0)
                .fault(FaultSpec::returning(-1).with_global("a", 1).with_global("b", 2)),
        );
        let a = lib.globals["a"];
        let b = lib.globals["b"];
        assert_ne!(a, b);
        assert!(lib.object.data_symbol_named("a").is_some());
        assert!(lib.object.data_symbol_named("b").is_some());
    }

    #[test]
    fn sparc_lowering_places_return_in_r8() {
        let spec = LibrarySpec::new("libsparc.so", Platform::SolarisSparc)
            .function(FunctionSpec::scalar("f", 1).success(3).fault(FaultSpec::returning(-2)));
        let lib = LibraryCompiler::new().compile(&spec);
        let code = lib.object.code_for_name("f").unwrap();
        let body = decode_function(&code.code).unwrap();
        let vm = Vm::new(Platform::SolarisSparc);
        assert_eq!(vm.run(&body, &[0], &mut ConstEnv::default()).unwrap().return_value, 3);
        assert_eq!(vm.run(&body, &[1], &mut ConstEnv::default()).unwrap().return_value, -2);
    }

    #[test]
    fn void_functions_have_no_success_constant() {
        let lib = compile_one(FunctionSpec::void("noop", 0));
        let f = lib.function("noop").unwrap();
        assert_eq!(f.paths[0].outcome.retval, None);
    }
}
