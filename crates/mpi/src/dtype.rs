//! MPI datatypes: base types, derived constructors, and elementwise
//! reduction over typed byte buffers.
//!
//! Derived datatypes exist mainly so that MANA has a second class of
//! persistent opaque objects (besides communicators/groups) to virtualize
//! and replay across restart, exactly as §2.2 of the paper describes.

use crate::types::ReduceOp;

/// Base (predefined) datatypes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BaseType {
    /// `MPI_BYTE`
    Byte,
    /// `MPI_INT` (32-bit)
    Int32,
    /// `MPI_LONG` (64-bit)
    Int64,
    /// `MPI_DOUBLE`
    Double,
}

impl BaseType {
    /// Size in bytes of one element.
    pub fn size(self) -> u64 {
        match self {
            BaseType::Byte => 1,
            BaseType::Int32 => 4,
            BaseType::Int64 => 8,
            BaseType::Double => 8,
        }
    }
}

/// A datatype definition (the *structure* behind an opaque handle).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum DtypeDef {
    /// A predefined base type.
    Base(BaseType),
    /// `count` consecutive copies of the inner type.
    Contiguous {
        /// Repeat count.
        count: u32,
        /// Inner type.
        inner: Box<DtypeDef>,
    },
}

/// Elementwise reduction of `b` into `a` (both packed buffers of `base`
/// elements). Lengths must match and divide the element size.
pub fn reduce_into(a: &mut [u8], b: &[u8], base: BaseType, op: ReduceOp) {
    assert_eq!(a.len(), b.len(), "reduction buffer length mismatch");
    let es = base.size() as usize;
    assert_eq!(a.len() % es, 0, "buffer not a multiple of element size");
    match base {
        BaseType::Byte => {
            for (x, y) in a.iter_mut().zip(b) {
                *x = combine_int(u64::from(*x), u64::from(*y), op) as u8;
            }
        }
        BaseType::Int32 => {
            for (ca, cb) in a.chunks_exact_mut(4).zip(b.chunks_exact(4)) {
                let x = i32::from_le_bytes(ca.try_into().unwrap());
                let y = i32::from_le_bytes(cb.try_into().unwrap());
                let z = combine_i64(i64::from(x), i64::from(y), op) as i32;
                ca.copy_from_slice(&z.to_le_bytes());
            }
        }
        BaseType::Int64 => {
            for (ca, cb) in a.chunks_exact_mut(8).zip(b.chunks_exact(8)) {
                let x = i64::from_le_bytes(ca.try_into().unwrap());
                let y = i64::from_le_bytes(cb.try_into().unwrap());
                ca.copy_from_slice(&combine_i64(x, y, op).to_le_bytes());
            }
        }
        BaseType::Double => {
            for (ca, cb) in a.chunks_exact_mut(8).zip(b.chunks_exact(8)) {
                let x = f64::from_le_bytes(ca.try_into().unwrap());
                let y = f64::from_le_bytes(cb.try_into().unwrap());
                ca.copy_from_slice(&combine_f64(x, y, op).to_le_bytes());
            }
        }
    }
}

fn combine_int(x: u64, y: u64, op: ReduceOp) -> u64 {
    match op {
        ReduceOp::Sum => x.wrapping_add(y),
        ReduceOp::Max => x.max(y),
        ReduceOp::Min => x.min(y),
        ReduceOp::Prod => x.wrapping_mul(y),
    }
}

fn combine_i64(x: i64, y: i64, op: ReduceOp) -> i64 {
    match op {
        ReduceOp::Sum => x.wrapping_add(y),
        ReduceOp::Max => x.max(y),
        ReduceOp::Min => x.min(y),
        ReduceOp::Prod => x.wrapping_mul(y),
    }
}

fn combine_f64(x: f64, y: f64, op: ReduceOp) -> f64 {
    match op {
        ReduceOp::Sum => x + y,
        ReduceOp::Max => x.max(y),
        ReduceOp::Min => x.min(y),
        ReduceOp::Prod => x * y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(BaseType::Byte.size(), 1);
        assert_eq!(BaseType::Int32.size(), 4);
        assert_eq!(BaseType::Int64.size(), 8);
        assert_eq!(BaseType::Double.size(), 8);
    }

    #[test]
    fn reduce_doubles() {
        let mut a = Vec::new();
        for v in [1.0f64, 2.0, 3.0] {
            a.extend_from_slice(&v.to_le_bytes());
        }
        let mut b = Vec::new();
        for v in [10.0f64, -2.5, 4.0] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        reduce_into(&mut a, &b, BaseType::Double, ReduceOp::Sum);
        let got: Vec<f64> = a
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(got, vec![11.0, -0.5, 7.0]);
    }

    #[test]
    fn reduce_max_i64() {
        let mut a = 5i64.to_le_bytes().to_vec();
        let b = (-7i64).to_le_bytes().to_vec();
        reduce_into(&mut a, &b, BaseType::Int64, ReduceOp::Max);
        assert_eq!(i64::from_le_bytes(a.try_into().unwrap()), 5);
    }

    #[test]
    fn reduce_bytes_min() {
        let mut a = vec![3u8, 200];
        reduce_into(&mut a, &[5, 100], BaseType::Byte, ReduceOp::Min);
        assert_eq!(a, vec![3, 100]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut a = vec![0u8; 8];
        reduce_into(&mut a, &[0u8; 16], BaseType::Double, ReduceOp::Sum);
    }
}
