//! Binary serialization of SimObj shared objects.
//!
//! The on-disk format is deliberately simple: a magic number, a version, and
//! length-prefixed little-endian records.  Both directions are implemented
//! here so the profiler genuinely reads binaries rather than in-memory values.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use lfi_isa::Platform;

use crate::{DataSymbol, FunctionCode, FunctionSig, ObjError, ReturnType, SharedObject, Storage, Symbol, SymbolDef};

const MAGIC: &[u8; 7] = b"SIMOBJ\0";
const VERSION: u16 = 1;

impl SharedObject {
    /// Serializes the object to its on-disk byte representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(256 + self.code_size());
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u8(platform_tag(self.platform));
        buf.put_u8(u8::from(self.stripped));
        put_string(&mut buf, &self.name);

        buf.put_u32_le(self.dependencies.len() as u32);
        for dep in &self.dependencies {
            put_string(&mut buf, dep);
        }

        buf.put_u32_le(self.data_symbols.len() as u32);
        for data in &self.data_symbols {
            put_string(&mut buf, &data.name);
            buf.put_u32_le(data.offset);
            buf.put_u8(match data.storage {
                Storage::Global => 0,
                Storage::Tls => 1,
            });
        }

        buf.put_u32_le(self.functions.len() as u32);
        for function in &self.functions {
            buf.put_u32_le(function.code.len() as u32);
            buf.put_slice(&function.code);
        }

        buf.put_u32_le(self.symbols.len() as u32);
        for symbol in &self.symbols {
            put_string(&mut buf, &symbol.name);
            match &symbol.def {
                SymbolDef::Defined { func_index, exported } => {
                    buf.put_u8(0);
                    buf.put_u32_le(*func_index);
                    buf.put_u8(u8::from(*exported));
                }
                SymbolDef::Import { library_hint } => {
                    buf.put_u8(1);
                    match library_hint {
                        Some(hint) => {
                            buf.put_u8(1);
                            put_string(&mut buf, hint);
                        }
                        None => buf.put_u8(0),
                    }
                }
            }
            match &symbol.signature {
                Some(sig) => {
                    buf.put_u8(1);
                    buf.put_u8(match sig.return_type {
                        ReturnType::Void => 0,
                        ReturnType::Scalar => 1,
                        ReturnType::Pointer => 2,
                    });
                    buf.put_u8(sig.arity);
                }
                None => buf.put_u8(0),
            }
        }

        buf.to_vec()
    }

    /// Parses an object from its on-disk byte representation.
    ///
    /// # Errors
    ///
    /// Returns [`ObjError`] on truncation, bad magic, unknown version, or
    /// malformed records.
    pub fn from_bytes(bytes: &[u8]) -> Result<SharedObject, ObjError> {
        let total = bytes.len();
        let mut buf = Bytes::copy_from_slice(bytes);
        let offset = |buf: &Bytes| total - buf.remaining();

        if buf.remaining() < MAGIC.len() {
            return Err(ObjError::Truncated { offset: offset(&buf) });
        }
        let mut magic = [0u8; 7];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(ObjError::BadMagic);
        }
        let version = get_u16(&mut buf, total)?;
        if version != VERSION {
            return Err(ObjError::UnsupportedVersion { version });
        }
        let platform = parse_platform(get_u8(&mut buf, total)?)?;
        let stripped = get_u8(&mut buf, total)? != 0;
        let name = get_string(&mut buf, total)?;

        let dep_count = get_u32(&mut buf, total)? as usize;
        let mut dependencies = Vec::with_capacity(dep_count.min(1024));
        for _ in 0..dep_count {
            dependencies.push(get_string(&mut buf, total)?);
        }

        let data_count = get_u32(&mut buf, total)? as usize;
        let mut data_symbols = Vec::with_capacity(data_count.min(1024));
        for _ in 0..data_count {
            let name = get_string(&mut buf, total)?;
            let offset_value = get_u32(&mut buf, total)?;
            let storage = match get_u8(&mut buf, total)? {
                0 => Storage::Global,
                1 => Storage::Tls,
                other => return Err(ObjError::InvalidTag { field: "storage", value: other }),
            };
            data_symbols.push(DataSymbol { name, offset: offset_value, storage });
        }

        let func_count = get_u32(&mut buf, total)? as usize;
        let mut functions = Vec::with_capacity(func_count.min(4096));
        for _ in 0..func_count {
            let len = get_u32(&mut buf, total)? as usize;
            if buf.remaining() < len {
                return Err(ObjError::Truncated { offset: offset(&buf) });
            }
            let mut code = vec![0u8; len];
            buf.copy_to_slice(&mut code);
            functions.push(FunctionCode::new(code));
        }

        let sym_count = get_u32(&mut buf, total)? as usize;
        let mut symbols = Vec::with_capacity(sym_count.min(8192));
        for _ in 0..sym_count {
            let name = get_string(&mut buf, total)?;
            let def = match get_u8(&mut buf, total)? {
                0 => SymbolDef::Defined {
                    func_index: get_u32(&mut buf, total)?,
                    exported: get_u8(&mut buf, total)? != 0,
                },
                1 => {
                    let has_hint = get_u8(&mut buf, total)? != 0;
                    let library_hint = if has_hint { Some(get_string(&mut buf, total)?) } else { None };
                    SymbolDef::Import { library_hint }
                }
                other => return Err(ObjError::InvalidTag { field: "symbol_def", value: other }),
            };
            let signature = match get_u8(&mut buf, total)? {
                0 => None,
                1 => {
                    let return_type = match get_u8(&mut buf, total)? {
                        0 => ReturnType::Void,
                        1 => ReturnType::Scalar,
                        2 => ReturnType::Pointer,
                        other => return Err(ObjError::InvalidTag { field: "return_type", value: other }),
                    };
                    Some(FunctionSig::new(return_type, get_u8(&mut buf, total)?))
                }
                other => return Err(ObjError::InvalidTag { field: "signature", value: other }),
            };
            symbols.push(Symbol { name, def, signature });
        }

        let object = SharedObject { name, platform, symbols, functions, data_symbols, dependencies, stripped };
        object.validate()?;
        Ok(object)
    }
}

fn platform_tag(platform: Platform) -> u8 {
    match platform {
        Platform::LinuxX86 => 0,
        Platform::WindowsX86 => 1,
        Platform::SolarisSparc => 2,
    }
}

fn parse_platform(tag: u8) -> Result<Platform, ObjError> {
    match tag {
        0 => Ok(Platform::LinuxX86),
        1 => Ok(Platform::WindowsX86),
        2 => Ok(Platform::SolarisSparc),
        other => Err(ObjError::InvalidTag { field: "platform", value: other }),
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_u8(buf: &mut Bytes, total: usize) -> Result<u8, ObjError> {
    if buf.remaining() < 1 {
        return Err(ObjError::Truncated { offset: total - buf.remaining() });
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut Bytes, total: usize) -> Result<u16, ObjError> {
    if buf.remaining() < 2 {
        return Err(ObjError::Truncated { offset: total - buf.remaining() });
    }
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut Bytes, total: usize) -> Result<u32, ObjError> {
    if buf.remaining() < 4 {
        return Err(ObjError::Truncated { offset: total - buf.remaining() });
    }
    Ok(buf.get_u32_le())
}

fn get_string(buf: &mut Bytes, total: usize) -> Result<String, ObjError> {
    let len = get_u32(buf, total)? as usize;
    let offset = total - buf.remaining();
    if buf.remaining() < len {
        return Err(ObjError::Truncated { offset });
    }
    let mut raw = vec![0u8; len];
    buf.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|_| ObjError::InvalidString { offset })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObjectBuilder;
    use lfi_isa::{Inst, Loc, Reg};

    fn demo() -> SharedObject {
        ObjectBuilder::new("libround.so", Platform::WindowsX86)
            .dependency("libc.so.6")
            .data_symbol("errno", 0xc00, Storage::Tls)
            .data_symbol("state", 0x80, Storage::Global)
            .export_with_signature(
                "open_thing",
                ReturnType::Pointer,
                2,
                vec![Inst::MovImm { dst: Loc::Reg(Reg(0)), imm: 0 }, Inst::Ret],
            )
            .local("internal", vec![Inst::Nop, Inst::Ret])
            .import("read", Some("libc.so.6"))
            .import("mystery", None)
            .build()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let obj = demo();
        let parsed = SharedObject::from_bytes(&obj.to_bytes()).unwrap();
        assert_eq!(obj, parsed);
    }

    #[test]
    fn roundtrip_of_stripped_object() {
        let obj = demo().stripped();
        let parsed = SharedObject::from_bytes(&obj.to_bytes()).unwrap();
        assert_eq!(obj, parsed);
        assert!(parsed.stripped);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = SharedObject::from_bytes(b"NOTOBJ\0rest").unwrap_err();
        assert_eq!(err, ObjError::BadMagic);
    }

    #[test]
    fn truncation_is_rejected_everywhere() {
        let bytes = demo().to_bytes();
        // Chopping the stream at any point must yield an error, never a panic
        // and never a silently different object.
        for cut in 0..bytes.len() {
            let result = SharedObject::from_bytes(&bytes[..cut]);
            assert!(result.is_err(), "cut at {cut} unexpectedly succeeded");
        }
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = demo().to_bytes();
        bytes[7] = 0xff;
        bytes[8] = 0xff;
        let err = SharedObject::from_bytes(&bytes).unwrap_err();
        assert_eq!(err, ObjError::UnsupportedVersion { version: 0xffff });
    }

    #[test]
    fn empty_object_roundtrips() {
        let obj = ObjectBuilder::new("libnothing.so", Platform::LinuxX86).build();
        let parsed = SharedObject::from_bytes(&obj.to_bytes()).unwrap();
        assert_eq!(obj, parsed);
        assert_eq!(parsed.code_size(), 0);
    }
}
