#![warn(missing_docs)]
//! Java classfile substrate for the classfuzz reproduction.
//!
//! This crate models the `.class` binary format as defined by the JVM
//! specification (JVMS SE 7, §4): the constant pool, access flags, field and
//! method descriptors, attributes (including `Code` with a fully decoded
//! instruction stream), and byte-level reading/writing.
//!
//! The model is deliberately *permissive*: it can represent — and serialize —
//! classfiles that violate semantic constraints (bad flag combinations,
//! dangling constant-pool references, nonsensical descriptors). Rejecting such
//! files is the job of the JVM under test (`classfuzz-vm`), not of this crate;
//! producing them is the job of the mutation engine (`classfuzz-mutation`).
//!
//! # Examples
//!
//! ```
//! use classfuzz_classfile::{ClassFile, ClassAccess};
//!
//! let class = ClassFile::builder("demo/Hello")
//!     .super_class("java/lang/Object")
//!     .flags(ClassAccess::PUBLIC | ClassAccess::SUPER)
//!     .build();
//! let bytes = class.to_bytes();
//! let parsed = ClassFile::from_bytes(&bytes).unwrap();
//! assert_eq!(parsed.this_class_name(), Some("demo/Hello".to_string()));
//! ```

pub mod attributes;
pub mod class;
pub mod constant_pool;
pub mod descriptor;
pub mod error;
pub mod flags;
pub mod instruction;
mod mutf8;
pub mod opcode;
pub mod printer;
mod reader;
mod writer;

pub use attributes::{Attribute, CodeAttribute, ExceptionTableEntry, InnerClassEntry};
pub use class::{ClassBuilder, ClassFile, Encoded, FieldInfo, MethodInfo, MAGIC};
pub use constant_pool::{ConstIndex, Constant, ConstantPool, PoolFullError, MAX_POOL_SLOTS};
pub use descriptor::{FieldType, MethodDescriptor};
pub use error::{ClassReadError, DescriptorError};
pub use flags::{ClassAccess, FieldAccess, MethodAccess};
pub use instruction::{Instruction, LookupSwitch, TableSwitch};
pub use opcode::Opcode;
