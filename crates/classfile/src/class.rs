//! The top-level [`ClassFile`] structure (JVMS §4.1) and its builder.

use crate::attributes::{Attribute, CodeAttribute};
use crate::constant_pool::{ConstIndex, ConstantPool};
use crate::error::ClassReadError;
use crate::flags::{ClassAccess, FieldAccess, MethodAccess};

/// The classfile magic number, `0xCAFEBABE`.
pub const MAGIC: u32 = 0xCAFE_BABE;

/// A field declaration (JVMS §4.5).
#[derive(Debug, Clone, PartialEq)]
pub struct FieldInfo {
    /// Access and property flags.
    pub access: FieldAccess,
    /// `Utf8` index of the field name.
    pub name: ConstIndex,
    /// `Utf8` index of the field descriptor.
    pub descriptor: ConstIndex,
    /// Attributes (`ConstantValue`, `Synthetic`, …).
    pub attributes: Vec<Attribute>,
}

/// A method declaration (JVMS §4.6).
#[derive(Debug, Clone, PartialEq)]
pub struct MethodInfo {
    /// Access and property flags.
    pub access: MethodAccess,
    /// `Utf8` index of the method name.
    pub name: ConstIndex,
    /// `Utf8` index of the method descriptor.
    pub descriptor: ConstIndex,
    /// Attributes (`Code`, `Exceptions`, …).
    pub attributes: Vec<Attribute>,
}

impl MethodInfo {
    /// The method's `Code` attribute, if any.
    pub fn code(&self) -> Option<&CodeAttribute> {
        self.attributes.iter().find_map(Attribute::as_code)
    }

    /// Mutable variant of [`MethodInfo::code`].
    pub fn code_mut(&mut self) -> Option<&mut CodeAttribute> {
        self.attributes.iter_mut().find_map(Attribute::as_code_mut)
    }

    /// `Class` indices of the method's declared (`throws`) exceptions.
    pub fn declared_exceptions(&self) -> &[ConstIndex] {
        for a in &self.attributes {
            if let Attribute::Exceptions(e) = a {
                return e;
            }
        }
        &[]
    }
}

/// An in-memory classfile.
///
/// All invariants of the *format* hold (the structure can always be
/// serialized); invariants of the *specification* (consistent flags, valid
/// references) deliberately may not.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassFile {
    /// Minor format version.
    pub minor_version: u16,
    /// Major format version (51 = Java 7, per the paper's setup).
    pub major_version: u16,
    /// The constant pool.
    pub constant_pool: ConstantPool,
    /// Class-level access flags.
    pub access: ClassAccess,
    /// `Class` constant of this class.
    pub this_class: ConstIndex,
    /// `Class` constant of the superclass; 0 only for `java/lang/Object`.
    pub super_class: ConstIndex,
    /// `Class` constants of directly implemented interfaces.
    pub interfaces: Vec<ConstIndex>,
    /// Declared fields.
    pub fields: Vec<FieldInfo>,
    /// Declared methods.
    pub methods: Vec<MethodInfo>,
    /// Class-level attributes.
    pub attributes: Vec<Attribute>,
}

impl ClassFile {
    /// Major version for the J2SE 7 platform — the version the paper pins
    /// all mutants to (§3.1.1).
    pub const MAJOR_JAVA7: u16 = 51;

    /// Starts building a class named `name` (binary form, e.g. `"a/b/C"`).
    pub fn builder(name: &str) -> ClassBuilder {
        ClassBuilder::new(name)
    }

    /// Resolves this class's own binary name from the constant pool.
    pub fn this_class_name(&self) -> Option<String> {
        self.constant_pool.class_name(self.this_class)
    }

    /// Resolves the superclass's binary name; `None` when `super_class`
    /// is 0 or dangling.
    pub fn super_class_name(&self) -> Option<String> {
        self.constant_pool.class_name(self.super_class)
    }

    /// Resolves the binary names of implemented interfaces, skipping any
    /// dangling entries.
    pub fn interface_names(&self) -> Vec<String> {
        self.interfaces
            .iter()
            .filter_map(|&i| self.constant_pool.class_name(i))
            .collect()
    }

    /// Finds a method by name and descriptor text.
    pub fn find_method(&self, name: &str, descriptor: &str) -> Option<&MethodInfo> {
        self.methods.iter().find(|m| {
            self.constant_pool.utf8_text(m.name) == Some(name)
                && self.constant_pool.utf8_text(m.descriptor) == Some(descriptor)
        })
    }

    /// Finds a field by name.
    pub fn find_field(&self, name: &str) -> Option<&FieldInfo> {
        self.fields
            .iter()
            .find(|f| self.constant_pool.utf8_text(f.name) == Some(name))
    }

    /// Serializes to classfile bytes. Infallible: any representable
    /// structure has an encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        crate::writer::write_class(self)
    }

    /// Serializes to classfile bytes using a caller-provided scratch body
    /// buffer, byte-identical to [`ClassFile::to_bytes`], and keeps the
    /// class next to its bytes, noting whether decoding them would give the
    /// class back: [`Encoded::exact`] is `true` only when
    /// `ClassFile::from_bytes(&bytes) == Ok(class)`.
    ///
    /// Attribute names for decoded attributes are interned into the class's
    /// *own* pool (interning never renumbers existing entries, so operand
    /// indices stay valid and repeated calls are stable) and the body is
    /// assembled in `body_buf`, so the only allocation left on the hot path
    /// is the returned output vector itself. Used by the scratch-lowering
    /// pipeline (`classfuzz_jimple::lower`).
    ///
    /// The check is conservative and costs no decode. The writer clears it
    /// wherever it narrows a value to a wire field too small for it: a
    /// count over 65,535, a Utf8 entry over 65,535 modified-UTF-8 bytes, an
    /// attribute name interned as `#0` into a full pool, a branch offset
    /// outside its 16- or 32-bit field, an `ldc` index over 255. It also
    /// clears it for the shapes the reader would re-frame or re-read as
    /// something else: `Unknown` attributes, inconsistent instruction
    /// variants and switch tables, stray pool padding, and NaN constants
    /// (whose decode keeps their bits but is never `==` to them).
    ///
    /// # Examples
    ///
    /// ```
    /// use classfuzz_classfile::ClassFile;
    ///
    /// let class = ClassFile::builder("demo/Hello")
    ///     .super_class("java/lang/Object")
    ///     .build();
    /// let encoded = class.encode(&mut Vec::new());
    /// assert!(encoded.exact);
    /// assert_eq!(ClassFile::from_bytes(&encoded.bytes), Ok(encoded.class));
    /// ```
    pub fn encode(mut self, body_buf: &mut Vec<u8>) -> Encoded {
        let (bytes, exact) = crate::writer::write_class_scratch(&mut self, body_buf);
        Encoded {
            class: self,
            bytes,
            exact,
        }
    }

    /// Parses a classfile from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ClassReadError`] when the bytes are not structurally
    /// decodable (bad magic, truncation, unknown constant tags or opcodes).
    pub fn from_bytes(bytes: &[u8]) -> Result<ClassFile, ClassReadError> {
        crate::reader::read_class(bytes)
    }
}

/// A class serialized by [`ClassFile::encode`], kept next to its bytes.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// The class as it stands after the write, its pool holding the
    /// interned attribute names.
    pub class: ClassFile,
    /// The classfile bytes, identical to `class.to_bytes()`.
    pub bytes: Vec<u8>,
    /// Whether `ClassFile::from_bytes(&bytes) == Ok(class)` is guaranteed.
    /// `false` means only that the writer could not vouch for it.
    pub exact: bool,
}

/// Builder for [`ClassFile`] values.
///
/// # Examples
///
/// ```
/// use classfuzz_classfile::{ClassFile, ClassAccess};
///
/// let class = ClassFile::builder("demo/A")
///     .flags(ClassAccess::PUBLIC | ClassAccess::SUPER)
///     .super_class("java/lang/Object")
///     .interface("java/lang/Runnable")
///     .build();
/// assert_eq!(class.interface_names(), vec!["java/lang/Runnable"]);
/// ```
#[derive(Debug, Clone)]
pub struct ClassBuilder {
    class: ClassFile,
}

impl ClassBuilder {
    /// Creates a builder for a class named `name`.
    pub fn new(name: &str) -> Self {
        let mut cp = ConstantPool::new();
        let this_class = cp.class(name);
        ClassBuilder {
            class: ClassFile {
                minor_version: 0,
                major_version: ClassFile::MAJOR_JAVA7,
                constant_pool: cp,
                access: ClassAccess::PUBLIC | ClassAccess::SUPER,
                this_class,
                super_class: ConstIndex(0),
                interfaces: Vec::new(),
                fields: Vec::new(),
                methods: Vec::new(),
                attributes: Vec::new(),
            },
        }
    }

    /// Sets the format version.
    pub fn version(mut self, major: u16, minor: u16) -> Self {
        self.class.major_version = major;
        self.class.minor_version = minor;
        self
    }

    /// Sets the class access flags.
    pub fn flags(mut self, flags: ClassAccess) -> Self {
        self.class.access = flags;
        self
    }

    /// Sets the superclass by binary name.
    pub fn super_class(mut self, name: &str) -> Self {
        self.class.super_class = self.class.constant_pool.class(name);
        self
    }

    /// Adds an implemented interface by binary name.
    pub fn interface(mut self, name: &str) -> Self {
        let idx = self.class.constant_pool.class(name);
        self.class.interfaces.push(idx);
        self
    }

    /// Adds a field.
    pub fn field(mut self, access: FieldAccess, name: &str, descriptor: &str) -> Self {
        let name = self.class.constant_pool.utf8(name);
        let descriptor = self.class.constant_pool.utf8(descriptor);
        self.class.fields.push(FieldInfo {
            access,
            name,
            descriptor,
            attributes: Vec::new(),
        });
        self
    }

    /// Adds a method with the given `Code` attribute.
    pub fn method(
        mut self,
        access: MethodAccess,
        name: &str,
        descriptor: &str,
        code: CodeAttribute,
    ) -> Self {
        let name = self.class.constant_pool.utf8(name);
        let descriptor = self.class.constant_pool.utf8(descriptor);
        self.class.methods.push(MethodInfo {
            access,
            name,
            descriptor,
            attributes: vec![Attribute::Code(code)],
        });
        self
    }

    /// Adds a method with no `Code` attribute (abstract/native shape).
    pub fn method_without_code(
        mut self,
        access: MethodAccess,
        name: &str,
        descriptor: &str,
    ) -> Self {
        let name = self.class.constant_pool.utf8(name);
        let descriptor = self.class.constant_pool.utf8(descriptor);
        self.class.methods.push(MethodInfo {
            access,
            name,
            descriptor,
            attributes: Vec::new(),
        });
        self
    }

    /// Grants mutable access to the pool for callers assembling bytecode.
    pub fn constant_pool_mut(&mut self) -> &mut ConstantPool {
        &mut self.class.constant_pool
    }

    /// Finishes building.
    pub fn build(self) -> ClassFile {
        self.class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constant_pool::Constant;
    use crate::instruction::Instruction;
    use crate::opcode::Opcode;

    #[test]
    fn builder_produces_resolvable_names() {
        let c = ClassFile::builder("p/Q")
            .super_class("java/lang/Object")
            .interface("I1")
            .interface("I2")
            .field(FieldAccess::PRIVATE, "f", "I")
            .method_without_code(MethodAccess::PUBLIC | MethodAccess::ABSTRACT, "m", "()V")
            .build();
        assert_eq!(c.this_class_name().as_deref(), Some("p/Q"));
        assert_eq!(c.super_class_name().as_deref(), Some("java/lang/Object"));
        assert_eq!(c.interface_names(), vec!["I1", "I2"]);
        assert!(c.find_field("f").is_some());
        assert!(c.find_method("m", "()V").is_some());
        assert!(c.find_method("m", "()I").is_none());
    }

    #[test]
    fn method_code_lookup() {
        let code = CodeAttribute {
            max_stack: 0,
            max_locals: 1,
            instructions: vec![Instruction::Simple(Opcode::Return)],
            exception_table: vec![],
            attributes: vec![],
        };
        let c = ClassFile::builder("X")
            .method(MethodAccess::PUBLIC, "go", "()V", code)
            .build();
        let m = c.find_method("go", "()V").unwrap();
        assert_eq!(m.code().unwrap().instructions.len(), 1);
        assert!(m.declared_exceptions().is_empty());
    }

    #[test]
    fn full_pool_serializes_without_wrapping() {
        use crate::constant_pool::MAX_POOL_SLOTS;
        let mut b = ClassFile::builder("cap/Full");
        {
            let cp = b.constant_pool_mut();
            while (cp.slot_count() as usize) < MAX_POOL_SLOTS {
                cp.push(Constant::Integer(cp.slot_count() as i32));
            }
        }
        let class = b.build();
        let bytes = class.to_bytes();
        // constant_pool_count (bytes 8..10) is slots + 1 = 65535 — the cap
        // guarantees the +1 cannot wrap the u16 to 0.
        assert_eq!(u16::from_be_bytes([bytes[8], bytes[9]]), u16::MAX);
        let parsed = ClassFile::from_bytes(&bytes).expect("full-pool class stays decodable");
        assert_eq!(
            parsed.constant_pool.slot_count(),
            class.constant_pool.slot_count()
        );
    }

    #[test]
    fn scratch_serialization_is_byte_identical_and_stable() {
        let code = CodeAttribute {
            max_stack: 1,
            max_locals: 1,
            instructions: vec![Instruction::Simple(Opcode::Return)],
            exception_table: vec![],
            attributes: vec![],
        };
        let class = ClassFile::builder("s/Scratch")
            .super_class("java/lang/Object")
            .field(FieldAccess::STATIC, "f", "I")
            .method(
                MethodAccess::PUBLIC | MethodAccess::STATIC,
                "m",
                "()V",
                code,
            )
            .build();
        let cold = class.to_bytes();
        let mut body_buf = Vec::new();
        // First scratch call interns "Code" into the class's own pool;
        // repeated calls (a dirty, non-empty buffer) must stay identical.
        let first = class.encode(&mut body_buf);
        assert_eq!(first.bytes, cold);
        let second = first.class.encode(&mut body_buf);
        assert_eq!(second.bytes, cold);
        assert_eq!(
            second.class.to_bytes(),
            cold,
            "interning kept operands valid"
        );
    }

    /// A class whose one method has `instructions` as its body.
    fn with_code(instructions: Vec<Instruction>) -> ClassFile {
        let code = CodeAttribute {
            max_stack: 1,
            max_locals: 1,
            instructions,
            exception_table: vec![],
            attributes: vec![],
        };
        ClassFile::builder("e/Exact")
            .super_class("java/lang/Object")
            .method(MethodAccess::STATIC, "m", "()V", code)
            .build()
    }

    #[test]
    fn exact_encoding_decodes_back_to_the_class() {
        let mut class = with_code(vec![
            Instruction::Ldc(ConstIndex(1)),
            Instruction::Branch(Opcode::Goto, 0),
            Instruction::Local(Opcode::Iload, 300),
            Instruction::Simple(Opcode::Return),
        ]);
        class.constant_pool.float(-0.0);
        let encoded = class.clone().encode(&mut Vec::new());
        assert!(encoded.exact);
        assert_eq!(encoded.bytes, class.to_bytes());
        assert_eq!(ClassFile::from_bytes(&encoded.bytes), Ok(encoded.class));
    }

    #[test]
    fn encoding_the_reader_would_reframe_is_not_exact() {
        let table = |targets: Vec<u32>| {
            Instruction::TableSwitch(crate::instruction::TableSwitch {
                default: 0,
                low: 0,
                high: 1,
                targets,
            })
        };
        let lossy = [
            // Index past the one-byte operand.
            vec![Instruction::Ldc(ConstIndex(300))],
            // Operands the variant does not encode.
            vec![Instruction::Simple(Opcode::Goto)],
            vec![Instruction::Local(Opcode::Iadd, 1)],
            vec![Instruction::Invoke(Opcode::Invokeinterface, ConstIndex(1))],
            // A jump table shorter than its key range.
            vec![table(vec![0])],
            // Offsets past their 16- and 32-bit fields.
            vec![Instruction::Branch(Opcode::Ifeq, 40_000)],
            vec![Instruction::Branch(Opcode::GotoW, u32::MAX)],
        ];
        for instructions in lossy {
            let what = format!("{instructions:?}");
            let encoded = with_code(instructions).encode(&mut Vec::new());
            assert!(!encoded.exact, "{what}");
            assert_ne!(
                ClassFile::from_bytes(&encoded.bytes).as_ref(),
                Ok(&encoded.class),
                "{what}"
            );
        }
        assert!(
            with_code(vec![table(vec![0, 0])])
                .encode(&mut Vec::new())
                .exact
        );
    }

    #[test]
    fn pool_and_attribute_shapes_the_reader_rereads_are_not_exact() {
        // An `Unknown` attribute that carries a recognized name decodes as
        // the typed attribute.
        let mut unknown = with_code(vec![]);
        let name = unknown.constant_pool.utf8("Synthetic");
        unknown
            .attributes
            .push(Attribute::Unknown { name, data: vec![] });
        // A NaN keeps its bits but is never `==` to itself.
        let mut nan = with_code(vec![]);
        nan.constant_pool.push(Constant::Double(f64::NAN));
        // Padding the reader re-creates only after Long/Double.
        let mut padding = with_code(vec![]);
        padding.constant_pool.push(Constant::Unusable);
        for (what, class) in [("unknown", unknown), ("nan", nan), ("padding", padding)] {
            let encoded = class.encode(&mut Vec::new());
            assert!(!encoded.exact, "{what}");
            assert_ne!(
                ClassFile::from_bytes(&encoded.bytes).as_ref(),
                Ok(&encoded.class),
                "{what}"
            );
        }
    }

    #[test]
    fn zero_super_resolves_to_none() {
        let c = ClassFile::builder("java/lang/Object").build();
        assert_eq!(c.super_class, ConstIndex(0));
        assert_eq!(c.super_class_name(), None);
    }
}
