//! The MJVM object heap.
//!
//! A bump-allocated arena of arrays and objects. Every object is given
//! a stable simulated byte address in the client's DRAM map so that
//! interpreter and native-code data accesses drive the D-cache model
//! with realistic locality (sequential array walks hit within cache
//! lines; pointer chasing does not).
//!
//! There is no garbage collector: the paper's benchmarks are
//! short-running method invocations and the heap is reset between
//! experiment runs, mirroring how the original study measured
//! per-invocation energy.

use crate::value::{Handle, Type, Value};
use crate::VmError;

/// Base simulated address of the heap region.
pub const HEAP_BASE: u64 = 0x4000_0000;

/// Element size in simulated bytes (ints are 4, floats 8, refs 4).
fn elem_size(ty: Type) -> u64 {
    match ty {
        Type::Int => 4,
        Type::Float => 8,
        Type::Ref => 4,
    }
}

/// Array payloads, one vector per element type.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayData {
    /// `int[]`
    Int(Vec<i32>),
    /// `float[]`
    Float(Vec<f64>),
    /// `ref[]` (elements may be `Value::Null` or `Value::Ref`)
    Ref(Vec<Value>),
}

impl ArrayData {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ArrayData::Int(v) => v.len(),
            ArrayData::Float(v) => v.len(),
            ArrayData::Ref(v) => v.len(),
        }
    }

    /// True when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element type.
    pub fn elem_type(&self) -> Type {
        match self {
            ArrayData::Int(_) => Type::Int,
            ArrayData::Float(_) => Type::Float,
            ArrayData::Ref(_) => Type::Ref,
        }
    }
}

/// One heap entity.
#[derive(Debug, Clone, PartialEq)]
pub enum HeapObj {
    /// An array.
    Array(ArrayData),
    /// An object instance: class id + field slots.
    Object {
        /// Class of the instance (index into the program's class table).
        class: u32,
        /// Field values, in declaration order.
        fields: Vec<Value>,
    },
}

/// The arena heap.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    objects: Vec<HeapObj>,
    /// Simulated base address of each object.
    addrs: Vec<u64>,
    /// Next free simulated address (bump pointer).
    next_addr: u64,
    /// Total simulated bytes allocated.
    pub bytes_allocated: u64,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Self {
        Heap {
            objects: Vec::new(),
            addrs: Vec::new(),
            next_addr: HEAP_BASE,
            bytes_allocated: 0,
        }
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no objects are allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    fn push(&mut self, obj: HeapObj, size_bytes: u64) -> Handle {
        let h = Handle(self.objects.len() as u32);
        self.objects.push(obj);
        self.addrs.push(self.next_addr);
        // Round object sizes to 8-byte alignment, like a real allocator.
        let padded = (size_bytes + 7) & !7;
        self.next_addr += padded.max(8);
        self.bytes_allocated += padded.max(8);
        h
    }

    /// Allocate an `int[]` of `len` zeros.
    pub fn alloc_int_array(&mut self, len: usize) -> Handle {
        self.push(
            HeapObj::Array(ArrayData::Int(vec![0; len])),
            4 * len as u64 + 8,
        )
    }

    /// Allocate a `float[]` of `len` zeros.
    pub fn alloc_float_array(&mut self, len: usize) -> Handle {
        self.push(
            HeapObj::Array(ArrayData::Float(vec![0.0; len])),
            8 * len as u64 + 8,
        )
    }

    /// Allocate a `ref[]` of `len` nulls.
    pub fn alloc_ref_array(&mut self, len: usize) -> Handle {
        self.push(
            HeapObj::Array(ArrayData::Ref(vec![Value::Null; len])),
            4 * len as u64 + 8,
        )
    }

    /// Allocate an array of `ty` with `len` zero elements.
    pub fn alloc_array(&mut self, ty: Type, len: usize) -> Handle {
        match ty {
            Type::Int => self.alloc_int_array(len),
            Type::Float => self.alloc_float_array(len),
            Type::Ref => self.alloc_ref_array(len),
        }
    }

    /// Allocate an instance of `class` with `nfields` zeroed slots
    /// (`field_types` supplies the zero value of each slot).
    pub fn alloc_object(&mut self, class: u32, field_types: &[Type]) -> Handle {
        let fields: Vec<Value> = field_types.iter().map(|&t| Value::zero_of(t)).collect();
        let size = 8 + 8 * fields.len() as u64;
        self.push(HeapObj::Object { class, fields }, size)
    }

    /// Borrow an object.
    ///
    /// # Errors
    /// [`VmError::BadHandle`] for out-of-range handles.
    pub fn get(&self, h: Handle) -> Result<&HeapObj, VmError> {
        self.objects
            .get(h.0 as usize)
            .ok_or(VmError::BadHandle(h.0))
    }

    /// Mutably borrow an object.
    ///
    /// # Errors
    /// [`VmError::BadHandle`] for out-of-range handles.
    pub fn get_mut(&mut self, h: Handle) -> Result<&mut HeapObj, VmError> {
        self.objects
            .get_mut(h.0 as usize)
            .ok_or(VmError::BadHandle(h.0))
    }

    /// Simulated base address of an object (for the cache model).
    pub fn address_of(&self, h: Handle) -> u64 {
        self.addrs.get(h.0 as usize).copied().unwrap_or(HEAP_BASE)
    }

    /// Simulated address of element `idx` of array `h` (assumes `h`
    /// is an array handle; used only for cache simulation so a wrong
    /// guess about element width is harmless).
    pub fn element_address(&self, h: Handle, idx: usize) -> u64 {
        match self.objects.get(h.0 as usize) {
            Some(HeapObj::Array(a)) => self.elem_addr(h, a.elem_type(), idx),
            _ => self.address_of(h) + 8 + 8 * idx as u64,
        }
    }

    /// Simulated address of element `idx` of the `ty` array `h`.
    #[inline]
    fn elem_addr(&self, h: Handle, ty: Type, idx: usize) -> u64 {
        self.address_of(h) + 8 + elem_size(ty) * idx as u64
    }

    /// Simulated address of field `idx` of object `h`.
    pub fn field_address(&self, h: Handle, idx: usize) -> u64 {
        self.address_of(h) + 8 + 8 * idx as u64
    }

    /// Array length of `h`.
    ///
    /// # Errors
    /// [`VmError::NotAnArray`] if `h` refers to an object.
    pub fn array_len(&self, h: Handle) -> Result<usize, VmError> {
        match self.get(h)? {
            HeapObj::Array(a) => Ok(a.len()),
            _ => Err(VmError::NotAnArray),
        }
    }

    /// Read array element with bounds checking.
    ///
    /// # Errors
    /// [`VmError::IndexOutOfBounds`], [`VmError::NotAnArray`],
    /// [`VmError::BadHandle`].
    #[inline]
    pub fn array_get(&self, h: Handle, idx: usize) -> Result<Value, VmError> {
        self.array_load(h, idx).map(|(v, _)| v)
    }

    /// [`Heap::array_get`] that also returns the element's
    /// [`Heap::element_address`], both from one object lookup.
    ///
    /// # Errors
    /// As [`Heap::array_get`].
    #[inline]
    pub fn array_load(&self, h: Handle, idx: usize) -> Result<(Value, u64), VmError> {
        let a = match self.get(h)? {
            HeapObj::Array(a) => a,
            _ => return Err(VmError::NotAnArray),
        };
        let v = match a {
            ArrayData::Int(v) => v.get(idx).map(|&x| Value::Int(x)),
            ArrayData::Float(v) => v.get(idx).map(|&x| Value::Float(x)),
            ArrayData::Ref(v) => v.get(idx).copied(),
        };
        match v {
            Some(v) => Ok((v, self.elem_addr(h, a.elem_type(), idx))),
            None => Err(VmError::IndexOutOfBounds {
                index: idx,
                len: a.len(),
            }),
        }
    }

    /// Write array element with bounds and type checking.
    ///
    /// # Errors
    /// [`VmError::IndexOutOfBounds`], [`VmError::TypeMismatch`],
    /// [`VmError::NotAnArray`], [`VmError::BadHandle`].
    #[inline]
    pub fn array_set(&mut self, h: Handle, idx: usize, val: Value) -> Result<(), VmError> {
        self.array_store(h, idx, val).map(|_| ())
    }

    /// [`Heap::array_set`] that also returns the element's
    /// [`Heap::element_address`], both from one object lookup.
    ///
    /// # Errors
    /// As [`Heap::array_set`].
    #[inline]
    pub fn array_store(&mut self, h: Handle, idx: usize, val: Value) -> Result<u64, VmError> {
        let ty = match self.get_mut(h)? {
            HeapObj::Array(ArrayData::Int(v)) => {
                let len = v.len();
                let slot = v
                    .get_mut(idx)
                    .ok_or(VmError::IndexOutOfBounds { index: idx, len })?;
                *slot = val.as_int()?;
                Type::Int
            }
            HeapObj::Array(ArrayData::Float(v)) => {
                let len = v.len();
                let slot = v
                    .get_mut(idx)
                    .ok_or(VmError::IndexOutOfBounds { index: idx, len })?;
                *slot = val.as_float()?;
                Type::Float
            }
            HeapObj::Array(ArrayData::Ref(v)) => {
                let len = v.len();
                let slot = v
                    .get_mut(idx)
                    .ok_or(VmError::IndexOutOfBounds { index: idx, len })?;
                match val {
                    Value::Ref(_) | Value::Null => *slot = val,
                    other => {
                        return Err(VmError::TypeMismatch {
                            expected: Type::Ref,
                            got: other.runtime_type(),
                        })
                    }
                }
                Type::Ref
            }
            _ => return Err(VmError::NotAnArray),
        };
        Ok(self.elem_addr(h, ty, idx))
    }

    /// Read object field.
    ///
    /// # Errors
    /// [`VmError::BadField`], [`VmError::NotAnObject`],
    /// [`VmError::BadHandle`].
    pub fn field_get(&self, h: Handle, idx: usize) -> Result<Value, VmError> {
        match self.get(h)? {
            HeapObj::Object { fields, .. } => {
                fields.get(idx).copied().ok_or(VmError::BadField(idx))
            }
            _ => Err(VmError::NotAnObject),
        }
    }

    /// Write object field.
    ///
    /// # Errors
    /// [`VmError::BadField`], [`VmError::NotAnObject`],
    /// [`VmError::BadHandle`].
    pub fn field_set(&mut self, h: Handle, idx: usize, val: Value) -> Result<(), VmError> {
        match self.get_mut(h)? {
            HeapObj::Object { fields, .. } => {
                let slot = fields.get_mut(idx).ok_or(VmError::BadField(idx))?;
                *slot = val;
                Ok(())
            }
            _ => Err(VmError::NotAnObject),
        }
    }

    /// Class of the object `h`.
    ///
    /// # Errors
    /// [`VmError::NotAnObject`], [`VmError::BadHandle`].
    pub fn class_of(&self, h: Handle) -> Result<u32, VmError> {
        match self.get(h)? {
            HeapObj::Object { class, .. } => Ok(*class),
            _ => Err(VmError::NotAnObject),
        }
    }

    /// Drop every object (fresh run).
    pub fn clear(&mut self) {
        self.objects.clear();
        self.addrs.clear();
        self.next_addr = HEAP_BASE;
        self.bytes_allocated = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw_int_array() {
        let mut h = Heap::new();
        let a = h.alloc_int_array(4);
        assert_eq!(h.array_len(a).unwrap(), 4);
        h.array_set(a, 2, Value::Int(42)).unwrap();
        assert_eq!(h.array_get(a, 2).unwrap(), Value::Int(42));
        assert_eq!(h.array_get(a, 0).unwrap(), Value::Int(0));
    }

    #[test]
    fn bounds_checked() {
        let mut h = Heap::new();
        let a = h.alloc_float_array(2);
        assert!(matches!(
            h.array_get(a, 2),
            Err(VmError::IndexOutOfBounds { index: 2, len: 2 })
        ));
        assert!(matches!(
            h.array_set(a, 5, Value::Float(1.0)),
            Err(VmError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn type_checked_stores() {
        let mut h = Heap::new();
        let a = h.alloc_int_array(1);
        assert!(matches!(
            h.array_set(a, 0, Value::Float(1.0)),
            Err(VmError::TypeMismatch { .. })
        ));
        let r = h.alloc_ref_array(1);
        assert!(h.array_set(r, 0, Value::Null).is_ok());
        assert!(h.array_set(r, 0, Value::Ref(a)).is_ok());
        assert!(matches!(
            h.array_set(r, 0, Value::Int(1)),
            Err(VmError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn objects_fields_and_class() {
        let mut h = Heap::new();
        let o = h.alloc_object(3, &[Type::Int, Type::Ref]);
        assert_eq!(h.class_of(o).unwrap(), 3);
        assert_eq!(h.field_get(o, 0).unwrap(), Value::Int(0));
        assert_eq!(h.field_get(o, 1).unwrap(), Value::Null);
        h.field_set(o, 0, Value::Int(-5)).unwrap();
        assert_eq!(h.field_get(o, 0).unwrap(), Value::Int(-5));
        assert!(matches!(h.field_get(o, 2), Err(VmError::BadField(2))));
    }

    #[test]
    fn arrays_are_not_objects_and_vice_versa() {
        let mut h = Heap::new();
        let a = h.alloc_int_array(1);
        let o = h.alloc_object(0, &[]);
        assert!(matches!(h.field_get(a, 0), Err(VmError::NotAnObject)));
        assert!(matches!(h.array_get(o, 0), Err(VmError::NotAnArray)));
        assert!(matches!(h.array_len(o), Err(VmError::NotAnArray)));
    }

    #[test]
    fn bad_handles_rejected() {
        let h = Heap::new();
        assert!(matches!(h.get(Handle(0)), Err(VmError::BadHandle(0))));
    }

    #[test]
    fn addresses_are_disjoint_and_aligned() {
        let mut h = Heap::new();
        let a = h.alloc_int_array(3); // 12 + 8 header = 20 -> padded 24
        let b = h.alloc_float_array(1);
        let addr_a = h.address_of(a);
        let addr_b = h.address_of(b);
        assert!(addr_a >= HEAP_BASE);
        assert_eq!(addr_a % 8, 0);
        assert_eq!(addr_b % 8, 0);
        assert!(addr_b >= addr_a + 24);
    }

    #[test]
    fn element_addresses_are_sequential() {
        let mut h = Heap::new();
        let a = h.alloc_int_array(8);
        let e0 = h.element_address(a, 0);
        let e1 = h.element_address(a, 1);
        assert_eq!(e1 - e0, 4);
        let f = h.alloc_float_array(8);
        assert_eq!(h.element_address(f, 1) - h.element_address(f, 0), 8);
    }

    #[test]
    fn clear_resets() {
        let mut h = Heap::new();
        h.alloc_int_array(100);
        assert!(h.bytes_allocated > 0);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.bytes_allocated, 0);
        let a = h.alloc_int_array(1);
        assert_eq!(h.address_of(a), HEAP_BASE);
    }
}
