use std::fmt;

use crate::{Loc, Reg};

/// The platforms the LFI paper evaluates on (§6.3): Linux/x86, Windows/x86 and
/// Solaris/SPARC.
///
/// In SimISA the platforms share one instruction encoding but differ in their
/// application binary interface — which register carries the return value,
/// how many arguments travel in registers, and which register is used as the
/// base for position-independent data access.  This mirrors the paper's
/// observation that the CFG analyses are ABI-independent while the *locations*
/// of interest are ABI-specific.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Linux on IA-32: return value in `r0` (the `eax` analogue), PIC base in
    /// `r3` (the `ebx` analogue), arguments on the stack.
    LinuxX86,
    /// Windows on IA-32: identical register conventions to Linux but a
    /// different loader (modelled in `lfi-runtime`) and TLS layout.
    WindowsX86,
    /// Solaris on SPARC: return value in `r8` (the `%o0` analogue), six
    /// register arguments, PIC base in `r7` (the `%l7` analogue).
    SolarisSparc,
}

impl Platform {
    /// All platforms supported by the reproduction, in the order used by the
    /// paper's accuracy table.
    pub const ALL: [Platform; 3] = [Platform::LinuxX86, Platform::WindowsX86, Platform::SolarisSparc];

    /// Returns the calling convention / ABI description for this platform.
    pub fn abi(self) -> Abi {
        match self {
            Platform::LinuxX86 => Abi {
                platform: self,
                return_reg: Reg(0),
                pic_base_reg: Reg(3),
                register_args: 0,
                errno_tls_offset: 0x12fff4,
            },
            Platform::WindowsX86 => Abi {
                platform: self,
                return_reg: Reg(0),
                pic_base_reg: Reg(3),
                register_args: 0,
                errno_tls_offset: 0x0c00,
            },
            Platform::SolarisSparc => Abi {
                platform: self,
                return_reg: Reg(8),
                pic_base_reg: Reg(7),
                register_args: 6,
                errno_tls_offset: 0x2000,
            },
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Platform::LinuxX86 => "Linux/x86",
            Platform::WindowsX86 => "Windows/x86",
            Platform::SolarisSparc => "Solaris/SPARC",
        };
        f.write_str(name)
    }
}

/// The application binary interface of a [`Platform`].
///
/// The LFI profiler needs to know exactly one ABI fact to run its return-code
/// analysis — *where the return value is placed* — plus, for side-effect
/// analysis, which register is the position-independent-code base and where
/// the `errno` thread-local slot lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Abi {
    platform: Platform,
    return_reg: Reg,
    pic_base_reg: Reg,
    register_args: u8,
    errno_tls_offset: u32,
}

impl Abi {
    /// The platform this ABI belongs to.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// The location in which functions place their return value (the `eax`
    /// analogue on x86, `%o0` on SPARC).
    pub fn return_loc(&self) -> Loc {
        Loc::Reg(self.return_reg)
    }

    /// The register holding the return value.
    pub fn return_reg(&self) -> Reg {
        self.return_reg
    }

    /// The register conventionally loaded with the module base address in
    /// position-independent code prologues (`ebx`/`ecx` on x86, `%l7` on
    /// SPARC).  Side-effect analysis treats stores through this base as
    /// global/TLS writes.
    pub fn pic_base_reg(&self) -> Reg {
        self.pic_base_reg
    }

    /// Number of arguments passed in registers before spilling to the stack.
    pub fn register_args(&self) -> u8 {
        self.register_args
    }

    /// The location of the `n`-th incoming argument as seen by the callee.
    pub fn arg_loc(&self, n: u8) -> Loc {
        Loc::Arg(n)
    }

    /// The canonical thread-local-storage offset of the `errno` variable in
    /// this platform's C library.
    pub fn errno_tls_offset(&self) -> u32 {
        self.errno_tls_offset
    }

    /// The TLS location of `errno` on this platform.
    pub fn errno_loc(&self) -> Loc {
        Loc::Tls(self.errno_tls_offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn return_locations_differ_by_platform() {
        assert_eq!(Platform::LinuxX86.abi().return_loc(), Loc::Reg(Reg(0)));
        assert_eq!(Platform::WindowsX86.abi().return_loc(), Loc::Reg(Reg(0)));
        assert_eq!(Platform::SolarisSparc.abi().return_loc(), Loc::Reg(Reg(8)));
    }

    #[test]
    fn sparc_passes_register_args() {
        assert_eq!(Platform::SolarisSparc.abi().register_args(), 6);
        assert_eq!(Platform::LinuxX86.abi().register_args(), 0);
    }

    #[test]
    fn errno_is_a_tls_side_channel() {
        for p in Platform::ALL {
            let abi = p.abi();
            assert!(abi.errno_loc().is_side_channel());
            assert_eq!(abi.errno_loc(), Loc::Tls(abi.errno_tls_offset()));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Platform::LinuxX86.to_string(), "Linux/x86");
        assert_eq!(Platform::WindowsX86.to_string(), "Windows/x86");
        assert_eq!(Platform::SolarisSparc.to_string(), "Solaris/SPARC");
    }

    #[test]
    fn abi_accessors_are_consistent() {
        for p in Platform::ALL {
            let abi = p.abi();
            assert_eq!(abi.platform(), p);
            assert_eq!(Loc::Reg(abi.return_reg()), abi.return_loc());
            assert_eq!(abi.arg_loc(3), Loc::Arg(3));
        }
    }
}
