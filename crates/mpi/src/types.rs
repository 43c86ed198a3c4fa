//! Fundamental MPI-level types shared by every implementation.

/// An MPI rank within a communicator (we use global job rank ids internally
/// and translate per-communicator where needed).
pub type Rank = u32;

/// A message tag.
pub type Tag = i32;

/// Source specification for a receive.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SrcSpec {
    /// Receive only from this rank.
    Rank(Rank),
    /// `MPI_ANY_SOURCE`.
    Any,
}

impl SrcSpec {
    /// Does a message from `src` match?
    #[inline]
    pub fn matches(self, src: Rank) -> bool {
        match self {
            SrcSpec::Rank(r) => r == src,
            SrcSpec::Any => true,
        }
    }
}

/// Tag specification for a receive.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TagSpec {
    /// Receive only this tag.
    Tag(Tag),
    /// `MPI_ANY_TAG`.
    Any,
}

impl TagSpec {
    /// Does a message with `tag` match?
    #[inline]
    pub fn matches(self, tag: Tag) -> bool {
        match self {
            TagSpec::Tag(t) => t == tag,
            TagSpec::Any => true,
        }
    }
}

/// Completion status of a receive (the useful subset of `MPI_Status`).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Status {
    /// Sending rank (global rank translated to the communicator's group).
    pub source: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Real payload bytes received.
    pub bytes: u64,
    /// Modelled (timing) bytes — equal to `bytes` unless the sender used a
    /// synthetic-size message.
    pub modeled_bytes: u64,
}

/// Reduction operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Elementwise product.
    Prod,
}

/// Opaque communicator handle. Values are implementation-specific (each MPI
/// implementation numbers its handles differently); MANA's virtualization
/// layer exists precisely because these values are not portable across
/// implementations or restarts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CommHandle(pub u64);

/// Opaque group handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupHandle(pub u64);

/// Opaque derived-datatype handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DtypeHandle(pub u64);

/// Opaque request handle (nonblocking operations).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReqHandle(pub u64);

/// A message buffer with separately modelled size.
///
/// Workloads usually send their real bytes (`modeled == data.len()`). The
/// OSU-style microbenchmarks sweep modelled sizes up to megabytes without
/// materializing buffers; timing uses `modeled`, correctness uses `data`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Msg<'a> {
    /// Real payload bytes.
    pub data: &'a [u8],
    /// Size used by the network timing model.
    pub modeled: u64,
}

impl<'a> Msg<'a> {
    /// A message whose modelled size equals its real size.
    pub fn real(data: &'a [u8]) -> Msg<'a> {
        Msg {
            data,
            modeled: data.len() as u64,
        }
    }

    /// A message carrying `data` but timed as `modeled` bytes.
    pub fn modeled(data: &'a [u8], modeled: u64) -> Msg<'a> {
        Msg { data, modeled }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_matching() {
        assert!(SrcSpec::Any.matches(3));
        assert!(SrcSpec::Rank(3).matches(3));
        assert!(!SrcSpec::Rank(3).matches(4));
        assert!(TagSpec::Any.matches(-5));
        assert!(TagSpec::Tag(7).matches(7));
        assert!(!TagSpec::Tag(7).matches(8));
    }

    #[test]
    fn msg_constructors() {
        let m = Msg::real(&[1, 2, 3]);
        assert_eq!(m.modeled, 3);
        let m = Msg::modeled(&[1], 1 << 20);
        assert_eq!(m.data.len(), 1);
        assert_eq!(m.modeled, 1 << 20);
    }
}
