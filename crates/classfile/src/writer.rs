//! Byte-level classfile serializer.
//!
//! Serialization is infallible: every representable [`ClassFile`] has an
//! encoding. Attribute names for decoded attributes are interned into a
//! working copy of the constant pool before the header is emitted (interning
//! never renumbers existing entries, so operand indices stay valid).
//!
//! The emitted `constant_pool_count` cannot wrap: [`ConstantPool`] refuses
//! entries past [`crate::constant_pool::MAX_POOL_SLOTS`], so `slots + 1`
//! always fits a `u16`. If attribute-name interning hits a full pool it
//! degrades to the null index `#0` — a dangling reference the VM under test
//! rejects — never an alias of an unrelated low slot.
//!
//! The scratch path also records, as it narrows each value to its wire
//! field, whether the bytes decode back to the class that wrote them (see
//! [`ClassFile::encode`]), so a caller holding the class can skip the
//! decode without a second walk over it.

use crate::attributes::{Attribute, CodeAttribute};
use crate::class::{ClassFile, MAGIC};
use crate::constant_pool::{Constant, ConstantPool};
use crate::mutf8;

pub(crate) fn write_class(class: &ClassFile) -> Vec<u8> {
    // Intern all attribute names first so the pool is final before we emit
    // it. The cold path works on a copy of the pool so `&self` callers keep
    // their class untouched.
    let mut cp = class.constant_pool.clone();
    let mut body = Vec::with_capacity(estimate_body_size(class));
    write_body(&mut body, class, &mut cp);
    let (bytes, _) = assemble(class.minor_version, class.major_version, &cp, &body);
    bytes
}

/// The scratch path behind [`ClassFile::encode`]: the same byte sequence as
/// [`write_class`], but the body is built in the caller's reusable buffer
/// and attribute names are interned into the class's *own* pool — no pool
/// clone. Sound because the header and pool are emitted only after the body
/// is complete, and interning never renumbers existing entries;
/// byte-identical to the cold path because both intern the same names in
/// the same order into equal starting pools.
///
/// Also reports whether the encoding is exact: `true` only when
/// [`ClassFile::from_bytes`] on the result gives back `class` as it stands
/// after the call (attribute names interned). Every narrowing the writer
/// makes clears the flag when it loses information, so the answer costs a
/// comparison per narrowed value, not a decode.
pub(crate) fn write_class_scratch(class: &mut ClassFile, body: &mut Vec<u8>) -> (Vec<u8>, bool) {
    body.clear();
    body.reserve(estimate_body_size(class));
    // The pool is moved out for the write so the class can be read while
    // names are interned, then moved back: no copy either way.
    let mut cp = std::mem::take(&mut class.constant_pool);
    let body_exact = write_body(body, class, &mut cp);
    class.constant_pool = cp;
    let (bytes, pool_exact) = assemble(
        class.minor_version,
        class.major_version,
        &class.constant_pool,
        body,
    );
    (bytes, body_exact && pool_exact)
}

/// Emits everything after the superclass header fields — identical for the
/// cold and scratch paths — and reports whether it decodes back exactly.
fn write_body(body: &mut Vec<u8>, class: &ClassFile, cp: &mut ConstantPool) -> bool {
    let mut w = Writer {
        out: body,
        cp,
        exact: true,
    };
    w.u2(class.access.bits());
    w.u2(class.this_class.0);
    w.u2(class.super_class.0);
    w.count(class.interfaces.len());
    for i in &class.interfaces {
        w.u2(i.0);
    }
    w.count(class.fields.len());
    for f in &class.fields {
        w.u2(f.access.bits());
        w.u2(f.name.0);
        w.u2(f.descriptor.0);
        w.attributes(&f.attributes);
    }
    w.count(class.methods.len());
    for m in &class.methods {
        w.u2(m.access.bits());
        w.u2(m.name.0);
        w.u2(m.descriptor.0);
        w.attributes(&m.attributes);
    }
    w.attributes(&class.attributes);
    w.exact
}

/// Concatenates magic, versions, the finished pool, and the body into the
/// owned output, allocated once at (an estimate of) its final size. Reports
/// whether the pool decodes back exactly.
fn assemble(minor: u16, major: u16, cp: &ConstantPool, body: &[u8]) -> (Vec<u8>, bool) {
    let mut out = Vec::with_capacity(8 + estimate_pool_size(cp) + body.len());
    push_u4(&mut out, MAGIC);
    push_u2(&mut out, minor);
    push_u2(&mut out, major);
    let exact = write_constant_pool(&mut out, cp);
    out.extend_from_slice(body);
    (out, exact)
}

/// A cheap upper-bound-ish estimate of the serialized size of everything
/// after the constant pool, so `body` starts at roughly its final capacity
/// instead of growing from empty.
fn estimate_body_size(class: &ClassFile) -> usize {
    fn attrs(list: &[Attribute]) -> usize {
        list.iter()
            .map(|a| {
                6 + match a {
                    Attribute::Code(c) => {
                        10 + c.instructions.len() * 4
                            + c.exception_table.len() * 8
                            + attrs(&c.attributes)
                    }
                    Attribute::Exceptions(e) => 2 + e.len() * 2,
                    Attribute::InnerClasses(e) => 2 + e.len() * 8,
                    Attribute::Unknown { data, .. } => data.len(),
                    _ => 2,
                }
            })
            .sum()
    }
    10 + class.interfaces.len() * 2
        + class
            .fields
            .iter()
            .map(|f| 8 + attrs(&f.attributes))
            .sum::<usize>()
        + class
            .methods
            .iter()
            .map(|m| 8 + attrs(&m.attributes))
            .sum::<usize>()
        + attrs(&class.attributes)
}

/// Estimated wire size of the pool (exact for ASCII Utf8 text).
fn estimate_pool_size(cp: &ConstantPool) -> usize {
    2 + cp
        .iter()
        .map(|(_, c)| match c {
            Constant::Utf8(s) => 3 + s.len(),
            Constant::Long(_) | Constant::Double(_) => 9,
            Constant::Unusable => 0,
            _ => 5,
        })
        .sum::<usize>()
}

/// Emits the pool, reporting whether it decodes back to the same entries.
/// It does not when a Utf8 entry's modified UTF-8 form outgrows its `u16`
/// length field, when a padding slot follows anything but a `Long` or
/// `Double` (the reader re-creates padding only there), or when a `Float` or
/// `Double` is a NaN, which decodes to the same bits but never compares
/// equal to itself.
fn write_constant_pool(out: &mut Vec<u8>, cp: &ConstantPool) -> bool {
    let mut exact = true;
    let mut after_wide = false;
    push_u2(out, cp.slot_count() + 1);
    for (_, entry) in cp.iter() {
        match entry {
            Constant::Utf8(s) => {
                out.push(1);
                // Length-backpatched so the (usually ASCII) text is encoded
                // straight into `out` with no intermediate allocation.
                let len_at = out.len();
                push_u2(out, 0);
                mutf8::encode_into(s, out);
                let n = out.len() - len_at - 2;
                exact &= n <= u16::MAX as usize;
                out[len_at..len_at + 2].copy_from_slice(&(n as u16).to_be_bytes());
            }
            Constant::Integer(v) => {
                out.push(3);
                push_u4(out, *v as u32);
            }
            Constant::Float(v) => {
                out.push(4);
                push_u4(out, v.to_bits());
                exact &= !v.is_nan();
            }
            Constant::Long(v) => {
                out.push(5);
                out.extend_from_slice(&v.to_be_bytes());
            }
            Constant::Double(v) => {
                out.push(6);
                out.extend_from_slice(&v.to_bits().to_be_bytes());
                exact &= !v.is_nan();
            }
            Constant::Class(i) => {
                out.push(7);
                push_u2(out, i.0);
            }
            Constant::String(i) => {
                out.push(8);
                push_u2(out, i.0);
            }
            Constant::FieldRef(c, nt) => {
                out.push(9);
                push_u2(out, c.0);
                push_u2(out, nt.0);
            }
            Constant::MethodRef(c, nt) => {
                out.push(10);
                push_u2(out, c.0);
                push_u2(out, nt.0);
            }
            Constant::InterfaceMethodRef(c, nt) => {
                out.push(11);
                push_u2(out, c.0);
                push_u2(out, nt.0);
            }
            Constant::NameAndType(n, d) => {
                out.push(12);
                push_u2(out, n.0);
                push_u2(out, d.0);
            }
            Constant::MethodHandle(kind, r) => {
                out.push(15);
                out.push(*kind);
                push_u2(out, r.0);
            }
            Constant::MethodType(d) => {
                out.push(16);
                push_u2(out, d.0);
            }
            Constant::InvokeDynamic(bsm, nt) => {
                out.push(18);
                push_u2(out, *bsm);
                push_u2(out, nt.0);
            }
            // Padding after Long/Double: no bytes.
            Constant::Unusable => exact &= after_wide,
        }
        after_wide = entry.is_wide();
    }
    exact
}

/// The body writer: the output, the pool attribute names are interned
/// into, and whether everything written so far decodes back exactly.
struct Writer<'a> {
    out: &'a mut Vec<u8>,
    cp: &'a mut ConstantPool,
    exact: bool,
}

impl Writer<'_> {
    fn u2(&mut self, v: u16) {
        push_u2(self.out, v);
    }

    /// A `u16` element count; a longer list is truncated on the wire.
    fn count(&mut self, n: usize) {
        self.exact &= n <= u16::MAX as usize;
        self.u2(n as u16);
    }

    /// Reserves a `u4` length field, to be filled by [`Writer::end_len`].
    fn begin_len(&mut self) -> usize {
        let at = self.out.len();
        push_u4(self.out, 0);
        at
    }

    /// Backpatches the `u4` length reserved at `at` with the bytes since.
    fn end_len(&mut self, at: usize) {
        let n = self.out.len() - at - 4;
        self.exact &= n <= u32::MAX as usize;
        self.out[at..at + 4].copy_from_slice(&(n as u32).to_be_bytes());
    }

    fn attributes(&mut self, attrs: &[Attribute]) {
        self.count(attrs.len());
        for attr in attrs {
            // Name first (the pre-payload interning order the pool layout
            // is pinned to), then the payload straight into `out` behind a
            // backpatched u4 length — no per-attribute buffer.
            let name_idx = match attr {
                Attribute::Code(_) => self.cp.utf8("Code"),
                Attribute::Exceptions(_) => self.cp.utf8("Exceptions"),
                Attribute::ConstantValue(_) => self.cp.utf8("ConstantValue"),
                Attribute::SourceFile(_) => self.cp.utf8("SourceFile"),
                Attribute::Signature(_) => self.cp.utf8("Signature"),
                Attribute::InnerClasses(_) => self.cp.utf8("InnerClasses"),
                Attribute::Synthetic => self.cp.utf8("Synthetic"),
                Attribute::Deprecated => self.cp.utf8("Deprecated"),
                Attribute::Unknown { name, .. } => *name,
            };
            // A full pool interns a name as the null index `#0`, which the
            // reader keeps as an `Unknown` attribute. An `Unknown` one may
            // itself carry a recognized name and so decode as a typed one:
            // the writer cannot vouch for either.
            self.exact &= name_idx.0 != 0 && !matches!(attr, Attribute::Unknown { .. });
            self.u2(name_idx.0);
            let len_at = self.begin_len();
            match attr {
                Attribute::Code(code) => self.code(code),
                Attribute::Exceptions(list) => {
                    self.count(list.len());
                    for e in list {
                        self.u2(e.0);
                    }
                }
                Attribute::ConstantValue(i)
                | Attribute::SourceFile(i)
                | Attribute::Signature(i) => self.u2(i.0),
                Attribute::InnerClasses(entries) => {
                    self.count(entries.len());
                    for e in entries {
                        self.u2(e.inner_class.0);
                        self.u2(e.outer_class.0);
                        self.u2(e.inner_name.0);
                        self.u2(e.inner_flags);
                    }
                }
                Attribute::Synthetic | Attribute::Deprecated => {}
                Attribute::Unknown { data, .. } => self.out.extend_from_slice(data),
            }
            self.end_len(len_at);
        }
    }

    fn code(&mut self, code: &CodeAttribute) {
        self.u2(code.max_stack);
        self.u2(code.max_locals);
        // Bytecode is emitted in place too: each instruction's pc is its
        // offset from the code array's start, backpatched like the lengths.
        let len_at = self.begin_len();
        let code_start = self.out.len();
        for insn in &code.instructions {
            let pc = (self.out.len() - code_start) as u32;
            self.exact &= insn.encode_exact(pc, self.out);
        }
        self.end_len(len_at);
        self.count(code.exception_table.len());
        for e in &code.exception_table {
            self.u2(e.start_pc);
            self.u2(e.end_pc);
            self.u2(e.handler_pc);
            self.u2(e.catch_type.0);
        }
        self.attributes(&code.attributes);
    }
}

fn push_u2(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn push_u4(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}
