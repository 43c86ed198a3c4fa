//! Checkpoint image format.
//!
//! The image is the complete transferable state of one MPI rank *minus*
//! the ephemeral lower half: upper-half memory regions, the virtual-handle
//! tables, the record-replay log for opaque-object reconstruction, the
//! point-to-point bookmark counters, the drained in-flight messages, the
//! application's progress cursor (the simulator-level stand-in for saved
//! stack/registers), and the managed-allocation table.
//!
//! Anything expressible here can be restored under a different MPI
//! implementation, network, or cluster — that is the MPI-agnostic,
//! network-agnostic property.

use crate::buffer::{BufferedMsg, PairCounters};
use crate::codec::{CodecError, ScatterDec, ScatterEnc};
use crate::record::LoggedCall;
use crate::restart::compact::{BindSource, RebindEntry};
use mana_mpi::{BaseType, ReduceOp};
use mana_sim::memory::{Half, RegionDirty, RegionKind, RegionSnapshot, SnapshotContent};
use mana_sim::scatter::ScatterBuf;
use std::sync::Arc;

/// "MANAIMG1" little-endian.
pub const MAGIC: u64 = 0x3147_4d49_414e_414d;
/// The format version every image is written and read at. Any other
/// version decodes to [`CodecError::BadVersion`]: images live in stores of
/// the process that wrote them, so no older layout has data to read.
pub const VERSION: u32 = 3;

/// A live virtual communicator at checkpoint time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VirtCommEntry {
    /// Virtual id.
    pub virt: u64,
    /// Members (global job ranks) in comm-rank order; empty for a null
    /// (burned) id from a split with undefined color.
    pub members: Vec<u32>,
    /// Cartesian dims, if the communicator has a topology.
    pub cart_dims: Vec<u32>,
    /// Cartesian periodicity (parallel to `cart_dims`).
    pub cart_periodic: Vec<bool>,
}

/// An outstanding two-phase nonblocking collective (§4.2 extension).
#[derive(Clone, Debug, PartialEq)]
pub struct PendingColl {
    /// Virtual request id the application holds.
    pub vreq: u64,
    /// Virtual communicator id.
    pub comm_virt: u64,
    /// Operation payload.
    pub kind: PendingKind,
}

/// Kind of pending nonblocking collective.
#[derive(Clone, Debug, PartialEq)]
pub enum PendingKind {
    /// `MPI_Ibarrier`.
    Ibarrier,
    /// `MPI_Iallreduce` with saved contribution.
    Iallreduce {
        /// Contribution bytes.
        data: Vec<u8>,
        /// Element type.
        base: BaseType,
        /// Operation.
        op: ReduceOp,
    },
}

/// The complete per-rank checkpoint image.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointImage {
    /// Rank id.
    pub rank: u32,
    /// Job size (restart must present the same world size).
    pub nranks: u32,
    /// Checkpoint id.
    pub ckpt_id: u64,
    /// Application name (diagnostics).
    pub app_name: String,
    /// Root seed of the original run (workload determinism).
    pub seed: u64,
    /// Upper-half memory regions.
    pub regions: Vec<RegionSnapshot>,
    /// Upper mmap-arena cursor (post-restart allocations continue below
    /// the restored regions).
    pub upper_cursor: u64,
    /// Live virtual communicators with membership/topology.
    pub comms: Vec<VirtCommEntry>,
    /// Live virtual group ids.
    pub groups: Vec<u64>,
    /// Live virtual datatype ids.
    pub dtypes: Vec<u64>,
    /// Record-replay log.
    pub log: Vec<LoggedCall>,
    /// Point-to-point bookmark counters.
    pub counters: PairCounters,
    /// Drained in-flight messages.
    pub buffered: Vec<BufferedMsg>,
    /// Outstanding two-phase nonblocking collectives.
    pub pending: Vec<PendingColl>,
    /// Operations completed in the current application step (the progress
    /// cursor; see `env` module).
    pub ops_done: u64,
    /// Managed allocations in creation order: (address, length).
    pub allocs: Vec<(u64, u64)>,
    /// Nonblocking-request slots (environment state).
    pub slots: Vec<crate::shared::SlotState>,
    /// Slot-id allocator position at checkpoint time.
    pub slot_seq: u64,
    /// Allocator position as of the interrupted step's start (restore
    /// rewinds to this so skipped operations re-derive their original
    /// slot ids).
    pub slot_seq_at_step: u64,
    /// Virtual id of the world communicator.
    pub world_virt: u64,
    /// Explicit virtual-id rebind map: which retained log entry (or the
    /// fresh world) binds each virtual id at replay.
    pub rebind: Vec<RebindEntry>,
    /// Virtual handles created by completed operations of the interrupted
    /// step, in creation order — the environment's resume ledger for
    /// skipped communicator/group/datatype creations.
    pub step_created: Vec<u64>,
    /// Per-region dirty-page summaries from the copy-on-write snapshot
    /// path (empty for hand-built images). Advisory: `DeltaStore` uses
    /// them — guarded by the `(lineage, base_seq)` epoch identity — to
    /// make diffing O(dirty pages).
    pub dirty: Vec<RegionDirty>,
}

/// The encoded form of a [`CheckpointImage`]: a scatter of byte segments
/// in which metadata runs are small owned segments and the dense region
/// pages are *shared* page handles into the snapshot ropes — no page is
/// memcpy'd between the address space and the store tier. An optional
/// decoded-image attachment rides along so image-aware stores
/// (`DeltaStore`, `CasStore`, dirty-aware compression) can read regions
/// and dirty summaries straight from the rope instead of re-decoding the
/// wire bytes.
///
/// Flat bytes come in through [`ImageBytes::from_vec`]; a caller that
/// needs contiguous bytes uses [`ImageBytes::to_vec`], which pays (and
/// counts, see [`mana_sim::scatter::shared_flatten_bytes`]) the flatten.
#[derive(Clone, Debug)]
pub struct ImageBytes {
    buf: ScatterBuf,
    image: Option<Arc<CheckpointImage>>,
    /// The image an envelope built by [`ImageBytes::frame_with`] wraps.
    framed: Option<Arc<CheckpointImage>>,
    /// The record digest the framing of such an envelope produced.
    record_digest: Option<u64>,
}

impl ImageBytes {
    /// Wrap already-flat bytes (foreign objects, raw test payloads).
    pub fn from_vec(bytes: Vec<u8>) -> ImageBytes {
        ImageBytes::from(ScatterBuf::from_vec(bytes))
    }

    /// Wrap a scatter together with the image it encodes. Store tiers
    /// that already hold the decoded form (delta replay, CAS
    /// reassembly) use this so downstream `decode_shared` is free.
    pub fn with_image(buf: ScatterBuf, image: Arc<CheckpointImage>) -> ImageBytes {
        ImageBytes {
            buf,
            image: Some(image),
            framed: None,
            record_digest: None,
        }
    }

    /// Wrap these bytes in a framing layer's envelope: `frame` turns the
    /// wire scatter into the envelope's and returns it with the record
    /// digest it computed while framing (a journal's commit digest). The
    /// envelope is not a rank image ([`ImageBytes::rank_image`] is
    /// `None`), but it keeps the attached image it wraps as
    /// [`ImageBytes::framed`], so a layer below can price the dirty pages
    /// without parsing the envelope, and the digest as
    /// [`ImageBytes::record_digest`], so it can seed a draw without
    /// hashing the envelope again. Taking the scatter back out
    /// ([`ImageBytes::into_scatter`]) drops both.
    pub fn frame_with(self, frame: impl FnOnce(ScatterBuf) -> (ScatterBuf, u64)) -> ImageBytes {
        let (buf, digest) = frame(self.buf);
        ImageBytes {
            framed: self.image.or(self.framed),
            image: None,
            buf,
            record_digest: Some(digest),
        }
    }

    /// Encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if the encoding is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The scatter view of the wire bytes.
    pub fn scatter(&self) -> &ScatterBuf {
        &self.buf
    }

    /// Take the scatter buffer (drops the image attachment, the framed
    /// image and the record digest).
    pub fn into_scatter(self) -> ScatterBuf {
        self.buf
    }

    /// The decoded image these bytes encode, when the producer attached
    /// it ([`CheckpointImage::encode_shared`]). Image-aware stores use
    /// this to skip the wire decode entirely.
    pub fn image(&self) -> Option<&Arc<CheckpointImage>> {
        self.image.as_ref()
    }

    /// The rank image these bytes encode, for store tiers that look inside
    /// it: the producer's attachment when there is one, else a
    /// [`CheckpointImage::decode_shared`] of the wire scatter. `None` when
    /// the bytes are not a rank image — decided from the 8-byte magic read
    /// through the scatter, so a journal envelope, a delta blob or any
    /// other foreign object is rejected without flattening anything.
    pub fn rank_image(&self) -> Option<Arc<CheckpointImage>> {
        match &self.image {
            Some(img) => Some(img.clone()),
            None => CheckpointImage::decode_shared(self)
                .ok()
                .map(|(img, _)| Arc::new(img)),
        }
    }

    /// The attached image an envelope wraps, when these bytes are one
    /// built by [`ImageBytes::frame_with`]. It describes the payload, not
    /// these bytes: a layer may derive a cost from it, never contents.
    pub fn framed(&self) -> Option<&Arc<CheckpointImage>> {
        self.framed.as_ref()
    }

    /// The record digest the framing produced, when these bytes are an
    /// envelope built by [`ImageBytes::frame_with`]. It identifies the
    /// envelope's content as framed; a layer may seed a cost or a draw
    /// from it, never validate with it.
    pub fn record_digest(&self) -> Option<u64> {
        self.record_digest
    }

    /// Flatten to contiguous bytes (copies; shared page bytes are tallied
    /// in [`mana_sim::scatter::shared_flatten_bytes`]).
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.to_vec()
    }

    /// Flatten, consuming the buffer (single-owned-segment buffers move
    /// without copying).
    pub fn into_vec(self) -> Vec<u8> {
        self.buf.into_vec()
    }
}

impl From<Vec<u8>> for ImageBytes {
    fn from(bytes: Vec<u8>) -> ImageBytes {
        ImageBytes::from_vec(bytes)
    }
}

impl From<ScatterBuf> for ImageBytes {
    /// Wrap an existing scatter (re-framed envelopes, delta blobs) with
    /// no image attachment.
    fn from(buf: ScatterBuf) -> ImageBytes {
        ImageBytes {
            buf,
            image: None,
            framed: None,
            record_digest: None,
        }
    }
}

impl PartialEq for ImageBytes {
    /// Wire-byte equality (segmentation, attachment, framed image and
    /// record digest ignored).
    fn eq(&self, other: &ImageBytes) -> bool {
        self.buf == other.buf
    }
}

impl Eq for ImageBytes {}

impl CheckpointImage {
    /// Serialize as a zero-copy scatter: dense region pages are shared
    /// rope handles, metadata runs are small owned segments.
    pub fn encode(&self) -> ImageBytes {
        let mut e = ScatterEnc::new();
        e.u64(MAGIC);
        e.u32(VERSION);
        e.u32(self.rank);
        e.u32(self.nranks);
        e.u64(self.ckpt_id);
        e.string(&self.app_name);
        e.u64(self.seed);
        e.u64(self.upper_cursor);
        e.u64(self.ops_done);

        enc_seq(&mut e, &self.regions, encode_region);
        enc_seq(&mut e, &self.comms, |e, c| {
            e.u64(c.virt);
            enc_seq(e, &c.members, |e, m| e.u32(*m));
            enc_cart(e, &c.cart_dims, &c.cart_periodic);
        });
        enc_seq(&mut e, &self.groups, |e, g| e.u64(*g));
        enc_seq(&mut e, &self.dtypes, |e, d| e.u64(*d));
        enc_seq(&mut e, &self.log, enc_call);
        enc_counters(&mut e, &self.counters);
        enc_seq(&mut e, &self.buffered, |e, m| {
            e.u64(m.comm_virt);
            e.u32(m.src_local);
            e.u32(m.src_global);
            e.i32(m.tag);
            e.bytes(&m.data);
            e.u64(m.modeled);
        });
        enc_seq(&mut e, &self.pending, |e, p| {
            e.u64(p.vreq);
            e.u64(p.comm_virt);
            match &p.kind {
                PendingKind::Ibarrier => e.u32(0),
                PendingKind::Iallreduce { data, base, op } => {
                    e.u32(1);
                    e.bytes(data);
                    e.u32(base_tag(*base));
                    e.u32(op_tag(*op));
                }
            }
        });
        enc_seq(&mut e, &self.allocs, |e, (addr, len)| {
            e.u64(*addr);
            e.u64(*len);
        });
        enc_seq(&mut e, &self.slots, enc_slot);
        e.u64(self.slot_seq);
        e.u64(self.slot_seq_at_step);
        e.u64(self.world_virt);
        enc_seq(&mut e, &self.rebind, |e, r| {
            e.u64(r.virt);
            match r.source {
                BindSource::World => e.u32(0),
                BindSource::Created { index } => {
                    e.u32(1);
                    e.u32(index);
                }
            }
        });
        enc_seq(&mut e, &self.step_created, |e, v| e.u64(*v));
        enc_seq(&mut e, &self.dirty, |e, d| {
            e.u64(d.start);
            e.u64(d.lineage);
            e.u64(d.seq);
            match d.base_seq {
                Some(b) => {
                    e.boolean(true);
                    e.u64(b);
                }
                None => e.boolean(false),
            }
            e.u64(d.page_count);
            enc_seq(e, &d.pages, |e, w| e.u64(*w));
        });
        ImageBytes::from(e.finish())
    }

    /// Like [`CheckpointImage::encode`], but attach the decoded image to
    /// the result so image-aware store tiers (delta diffing,
    /// content-addressed dedup, dirty-aware compression) digest pages
    /// straight out of the rope instead of decoding the wire bytes. The
    /// hot checkpoint path (the helper thread) uses this.
    pub fn encode_shared(this: &Arc<CheckpointImage>) -> ImageBytes {
        ImageBytes {
            image: Some(this.clone()),
            ..this.encode()
        }
    }

    /// Deserialize straight from a scatter, recovering dense region pages
    /// as the stored page handles — the read-side twin of
    /// [`CheckpointImage::encode_shared`]. When the producer attached the
    /// decoded image, the wire decode is skipped entirely (the clone is
    /// cheap: region ropes are shared pages). Returns the image plus the
    /// copy accounting for [`crate::stats::RankRestartStats`].
    pub fn decode_shared(bytes: &ImageBytes) -> Result<(CheckpointImage, DecodeStats), CodecError> {
        if let Some(img) = bytes.image() {
            let img = (**img).clone();
            let pages_shared = img.dense_page_count();
            return Ok((
                img,
                DecodeStats {
                    bytes_copied: 0,
                    pages_shared,
                },
            ));
        }
        let mut d = ScatterDec::new(bytes.scatter());
        let img = CheckpointImage::decode_from(&mut d)?;
        Ok((
            img,
            DecodeStats {
                bytes_copied: d.bytes_copied(),
                pages_shared: d.pages_shared(),
            },
        ))
    }

    fn decode_from(d: &mut ScatterDec<'_>) -> Result<CheckpointImage, CodecError> {
        let magic = d.u64("magic")?;
        if magic != MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        let version = d.u32("version")?;
        if version != VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let rank = d.u32("rank")?;
        let nranks = d.u32("nranks")?;
        let ckpt_id = d.u64("ckpt_id")?;
        let app_name = d.string("app_name")?;
        let seed = d.u64("seed")?;
        let upper_cursor = d.u64("upper_cursor")?;
        let ops_done = d.u64("ops_done")?;

        let regions = dec_seq(d, "regions", decode_region)?;
        let comms = dec_seq(d, "comms", |d| {
            let virt = d.u64("comm virt")?;
            let members = dec_seq(d, "members", |d| d.u32("member"))?;
            let (cart_dims, cart_periodic) = dec_cart(d)?;
            Ok(VirtCommEntry {
                virt,
                members,
                cart_dims,
                cart_periodic,
            })
        })?;
        let groups = dec_seq(d, "groups", |d| d.u64("group"))?;
        let dtypes = dec_seq(d, "dtypes", |d| d.u64("dtype"))?;
        let log = dec_seq(d, "log", dec_call)?;
        let counters = dec_counters(d)?;
        let buffered = dec_seq(d, "buffered", |d| {
            Ok(BufferedMsg {
                comm_virt: d.u64("msg comm")?,
                src_local: d.u32("msg src_local")?,
                src_global: d.u32("msg src_global")?,
                tag: d.i32("msg tag")?,
                data: d.bytes("msg data")?,
                modeled: d.u64("msg modeled")?,
            })
        })?;
        let pending = dec_seq(d, "pending", |d| {
            let vreq = d.u64("pending vreq")?;
            let comm_virt = d.u64("pending comm")?;
            let kind = match d.u32("pending kind")? {
                0 => PendingKind::Ibarrier,
                1 => PendingKind::Iallreduce {
                    data: d.bytes("pending data")?,
                    base: dec_base(d.u32("pending base")?)?,
                    op: dec_op(d.u32("pending op")?)?,
                },
                tag => {
                    return Err(CodecError::BadTag {
                        what: "pending",
                        tag,
                    })
                }
            };
            Ok(PendingColl {
                vreq,
                comm_virt,
                kind,
            })
        })?;
        let allocs = dec_seq(d, "allocs", |d| {
            Ok((d.u64("alloc addr")?, d.u64("alloc len")?))
        })?;
        let slots = dec_seq(d, "slots", dec_slot)?;
        let slot_seq = d.u64("slot_seq")?;
        let slot_seq_at_step = d.u64("slot_seq_at_step")?;
        let world_virt = d.u64("world_virt")?;
        let rebind = dec_seq(d, "rebind", |d| {
            let virt = d.u64("rebind virt")?;
            let source = match d.u32("rebind source")? {
                0 => BindSource::World,
                1 => BindSource::Created {
                    index: d.u32("rebind index")?,
                },
                tag => {
                    return Err(CodecError::BadTag {
                        what: "rebind source",
                        tag,
                    })
                }
            };
            Ok(RebindEntry { virt, source })
        })?;
        let step_created = dec_seq(d, "step_created", |d| d.u64("step_created virt"))?;
        let dirty = dec_seq(d, "dirty summaries", |d| {
            Ok(RegionDirty {
                start: d.u64("dirty start")?,
                lineage: d.u64("dirty lineage")?,
                seq: d.u64("dirty seq")?,
                base_seq: if d.boolean("dirty base some")? {
                    Some(d.u64("dirty base seq")?)
                } else {
                    None
                },
                page_count: d.u64("dirty page count")?,
                pages: dec_seq(d, "dirty words", |d| d.u64("dirty word"))?,
            })
        })?;
        Ok(CheckpointImage {
            rank,
            nranks,
            ckpt_id,
            app_name,
            seed,
            regions,
            upper_cursor,
            comms,
            groups,
            dtypes,
            log,
            counters,
            buffered,
            pending,
            ops_done,
            allocs,
            slots,
            slot_seq,
            slot_seq_at_step,
            world_virt,
            rebind,
            step_created,
            dirty,
        })
    }

    /// Logical payload size (what the filesystem timing model charges):
    /// dense bytes plus pattern-region logical sizes plus metadata.
    pub fn logical_bytes(&self) -> u64 {
        let mem: u64 = self.regions.iter().map(|r| r.len).sum();
        mem + 4096 // metadata page
    }

    /// Dense (actually stored) byte count.
    pub fn dense_bytes(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| match &r.content {
                SnapshotContent::Dense(b) => b.len() as u64,
                SnapshotContent::Pattern { .. } => 0,
            })
            .sum()
    }

    /// Total dense rope pages across all regions (the sharing currency of
    /// the zero-copy read path).
    pub fn dense_page_count(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| match &r.content {
                SnapshotContent::Dense(b) => b.page_count() as u64,
                SnapshotContent::Pattern { .. } => 0,
            })
            .sum()
    }
}

/// Copy accounting from [`CheckpointImage::decode_shared`]: how many wire
/// bytes had to be copied out of the scatter (metadata runs, non-canonical
/// payloads) and how many dense pages came back as shared page handles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Bytes memcpy'd out of the scatter during decode.
    pub bytes_copied: u64,
    /// Dense pages recovered as shared handles (zero copies).
    pub pages_shared: u64,
}

fn half_tag(h: Half) -> u32 {
    match h {
        Half::Upper => 0,
        Half::Lower => 1,
    }
}

fn dec_half(tag: u32) -> Result<Half, CodecError> {
    match tag {
        0 => Ok(Half::Upper),
        1 => Ok(Half::Lower),
        tag => Err(CodecError::BadTag { what: "half", tag }),
    }
}

fn kind_tag(k: RegionKind) -> u32 {
    match k {
        RegionKind::Text => 0,
        RegionKind::Data => 1,
        RegionKind::Heap => 2,
        RegionKind::Stack => 3,
        RegionKind::Mmap => 4,
        RegionKind::Shm => 5,
        RegionKind::Pinned => 6,
        RegionKind::Tls => 7,
    }
}

fn dec_kind(tag: u32) -> Result<RegionKind, CodecError> {
    Ok(match tag {
        0 => RegionKind::Text,
        1 => RegionKind::Data,
        2 => RegionKind::Heap,
        3 => RegionKind::Stack,
        4 => RegionKind::Mmap,
        5 => RegionKind::Shm,
        6 => RegionKind::Pinned,
        7 => RegionKind::Tls,
        tag => {
            return Err(CodecError::BadTag {
                what: "region kind",
                tag,
            })
        }
    })
}

fn base_tag(b: BaseType) -> u32 {
    match b {
        BaseType::Byte => 0,
        BaseType::Int32 => 1,
        BaseType::Int64 => 2,
        BaseType::Double => 3,
    }
}

fn dec_base(tag: u32) -> Result<BaseType, CodecError> {
    Ok(match tag {
        0 => BaseType::Byte,
        1 => BaseType::Int32,
        2 => BaseType::Int64,
        3 => BaseType::Double,
        tag => {
            return Err(CodecError::BadTag {
                what: "base type",
                tag,
            })
        }
    })
}

fn op_tag(o: ReduceOp) -> u32 {
    match o {
        ReduceOp::Sum => 0,
        ReduceOp::Max => 1,
        ReduceOp::Min => 2,
        ReduceOp::Prod => 3,
    }
}

fn dec_op(tag: u32) -> Result<ReduceOp, CodecError> {
    Ok(match tag {
        0 => ReduceOp::Sum,
        1 => ReduceOp::Max,
        2 => ReduceOp::Min,
        3 => ReduceOp::Prod,
        tag => {
            return Err(CodecError::BadTag {
                what: "reduce op",
                tag,
            })
        }
    })
}

/// Encode one region snapshot. Shared with derived image formats (the
/// delta blobs and CAS manifests of `mana-store` embed region snapshots).
/// Dense content is appended as the snapshot's frozen pages, with no
/// intermediate materialization.
pub fn encode_region(e: &mut ScatterEnc, r: &RegionSnapshot) {
    e.u64(r.start);
    e.u64(r.len);
    e.u32(half_tag(r.half));
    e.u32(kind_tag(r.kind));
    e.string(&r.name);
    match &r.content {
        SnapshotContent::Dense(b) => {
            e.u32(0);
            e.dense(b);
        }
        SnapshotContent::Pattern { seed } => {
            e.u32(1);
            e.u64(*seed);
        }
    }
}

/// Decode one region snapshot (inverse of [`encode_region`]).
pub fn decode_region(d: &mut ScatterDec<'_>) -> Result<RegionSnapshot, CodecError> {
    let start = d.u64("region start")?;
    let len = d.u64("region len")?;
    let half = dec_half(d.u32("region half")?)?;
    let kind = dec_kind(d.u32("region kind")?)?;
    let name = d.string("region name")?;
    let content = match d.u32("region content")? {
        // Stored pages come back as the same handles (zero
        // copies); bytes that lost their page segmentation are copied.
        0 => SnapshotContent::Dense(d.dense("region dense")?),
        1 => SnapshotContent::Pattern {
            seed: d.u64("region pattern")?,
        },
        tag => {
            return Err(CodecError::BadTag {
                what: "region content",
                tag,
            })
        }
    };
    Ok(RegionSnapshot {
        start,
        len,
        half,
        kind,
        name,
        content,
    })
}

/// Decode an image that a derived format embeds behind a length prefix
/// (the meta image of a delta blob or a CAS manifest), straight from the
/// outer decoder rather than from a copy of its bytes. The image must
/// fill its prefix exactly.
pub fn decode_embedded(
    d: &mut ScatterDec<'_>,
    what: &'static str,
) -> Result<CheckpointImage, CodecError> {
    let len = d.seq(what)?;
    let Some(end) = d.remaining().checked_sub(len) else {
        return Err(CodecError::Truncated { what });
    };
    let img = CheckpointImage::decode_from(d)?;
    if d.remaining() != end {
        return Err(CodecError::Truncated { what });
    }
    Ok(img)
}

/// Write `items` as a length-prefixed sequence.
fn enc_seq<T>(e: &mut ScatterEnc, items: &[T], mut item: impl FnMut(&mut ScatterEnc, &T)) {
    e.seq(items.len());
    for x in items {
        item(e, x);
    }
}

/// Read a length-prefixed sequence (the inverse of [`enc_seq`]).
fn dec_seq<T>(
    d: &mut ScatterDec<'_>,
    what: &'static str,
    mut item: impl FnMut(&mut ScatterDec<'_>) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    (0..d.seq(what)?).map(|_| item(d)).collect()
}

/// Cartesian topology: the dims as a sequence, then one periodicity flag
/// per dim.
fn enc_cart(e: &mut ScatterEnc, dims: &[u32], periodic: &[bool]) {
    enc_seq(e, dims, |e, d| e.u32(*d));
    for p in periodic {
        e.boolean(*p);
    }
}

fn dec_cart(d: &mut ScatterDec<'_>) -> Result<(Vec<u32>, Vec<bool>), CodecError> {
    let n = d.seq("cart dims")?;
    let dims = (0..n)
        .map(|_| d.u32("cart dim"))
        .collect::<Result<_, _>>()?;
    let periodic = (0..n)
        .map(|_| d.boolean("cart periodic"))
        .collect::<Result<_, _>>()?;
    Ok((dims, periodic))
}

fn enc_slot(e: &mut ScatterEnc, s: &crate::shared::SlotState) {
    use crate::shared::SlotState;
    use mana_mpi::{SrcSpec, TagSpec};
    match s {
        SlotState::Empty => e.u32(0),
        SlotState::RecvPosted {
            comm_virt,
            src,
            tag,
            arr_addr,
            offset,
        } => {
            e.u32(1);
            e.u64(*comm_virt);
            match src {
                SrcSpec::Any => e.u32(u32::MAX),
                SrcSpec::Rank(r) => e.u32(*r),
            }
            match tag {
                TagSpec::Any => {
                    e.boolean(true);
                    e.i32(0);
                }
                TagSpec::Tag(v) => {
                    e.boolean(false);
                    e.i32(*v);
                }
            }
            e.u64(*arr_addr);
            e.u64(*offset);
        }
        SlotState::SendIssued { .. } => {
            // The runtime vreq deliberately does not survive: delivery is
            // guaranteed by the drain.
            e.u32(2);
        }
        SlotState::CollPending { vreq } => {
            e.u32(3);
            e.u64(*vreq);
        }
    }
}

fn dec_slot(d: &mut ScatterDec<'_>) -> Result<crate::shared::SlotState, CodecError> {
    use crate::shared::SlotState;
    use mana_mpi::{SrcSpec, TagSpec};
    Ok(match d.u32("slot tag")? {
        0 => SlotState::Empty,
        1 => {
            let comm_virt = d.u64("slot comm")?;
            let src = match d.u32("slot src")? {
                u32::MAX => SrcSpec::Any,
                r => SrcSpec::Rank(r),
            };
            let any_tag = d.boolean("slot tag any")?;
            let tv = d.i32("slot tag value")?;
            let tag = if any_tag {
                TagSpec::Any
            } else {
                TagSpec::Tag(tv)
            };
            SlotState::RecvPosted {
                comm_virt,
                src,
                tag,
                arr_addr: d.u64("slot arr")?,
                offset: d.u64("slot off")?,
            }
        }
        2 => SlotState::SendIssued { vreq: None },
        3 => SlotState::CollPending {
            vreq: d.u64("slot vreq")?,
        },
        tag => return Err(CodecError::BadTag { what: "slot", tag }),
    })
}

fn enc_counters(e: &mut ScatterEnc, c: &PairCounters) {
    e.seq(c.sent.len());
    for (k, v) in &c.sent {
        e.u32(*k);
        e.u64(*v);
    }
    e.seq(c.recvd.len());
    for (k, v) in &c.recvd {
        e.u32(*k);
        e.u64(*v);
    }
}

fn dec_counters(d: &mut ScatterDec<'_>) -> Result<PairCounters, CodecError> {
    let mut c = PairCounters::default();
    for _ in 0..d.seq("sent counters")? {
        let k = d.u32("sent peer")?;
        let v = d.u64("sent count")?;
        c.sent.insert(k, v);
    }
    for _ in 0..d.seq("recvd counters")? {
        let k = d.u32("recvd peer")?;
        let v = d.u64("recvd count")?;
        c.recvd.insert(k, v);
    }
    Ok(c)
}

fn enc_call(e: &mut ScatterEnc, c: &LoggedCall) {
    match c {
        LoggedCall::CommDup { parent, result } => {
            e.u32(0);
            e.u64(*parent);
            e.u64(*result);
        }
        LoggedCall::CommSplit {
            parent,
            color,
            key,
            result,
        } => {
            e.u32(1);
            e.u64(*parent);
            e.i32(*color);
            e.i32(*key);
            e.u64(*result);
        }
        LoggedCall::CommCreate {
            parent,
            group,
            result,
        } => {
            e.u32(2);
            e.u64(*parent);
            e.u64(*group);
            match result {
                Some(r) => {
                    e.boolean(true);
                    e.u64(*r);
                }
                None => e.boolean(false),
            }
        }
        LoggedCall::CommFree { comm } => {
            e.u32(3);
            e.u64(*comm);
        }
        LoggedCall::CartCreate {
            parent,
            dims,
            periodic,
            result,
        } => {
            e.u32(4);
            e.u64(*parent);
            enc_cart(e, dims, periodic);
            e.u64(*result);
        }
        LoggedCall::CommGroup {
            comm,
            members,
            result,
        } => {
            e.u32(5);
            e.u64(*comm);
            enc_seq(e, members, |e, m| e.u32(*m));
            e.u64(*result);
        }
        LoggedCall::GroupIncl {
            group,
            ranks,
            result,
        } => {
            e.u32(6);
            e.u64(*group);
            enc_seq(e, ranks, |e, r| e.u32(*r));
            e.u64(*result);
        }
        LoggedCall::GroupExcl {
            group,
            ranks,
            result,
        } => {
            e.u32(7);
            e.u64(*group);
            enc_seq(e, ranks, |e, r| e.u32(*r));
            e.u64(*result);
        }
        LoggedCall::GroupFree { group } => {
            e.u32(8);
            e.u64(*group);
        }
        LoggedCall::TypeBase { base, result } => {
            e.u32(9);
            e.u32(base_tag(*base));
            e.u64(*result);
        }
        LoggedCall::TypeContiguous {
            count,
            inner,
            result,
        } => {
            e.u32(10);
            e.u32(*count);
            e.u64(*inner);
            e.u64(*result);
        }
        LoggedCall::TypeVector {
            count,
            blocklen,
            stride,
            inner,
            result,
        } => {
            e.u32(11);
            e.u32(*count);
            e.u32(*blocklen);
            e.u32(*stride);
            e.u64(*inner);
            e.u64(*result);
        }
        LoggedCall::TypeFree { dtype } => {
            e.u32(12);
            e.u64(*dtype);
        }
    }
}

fn dec_call(d: &mut ScatterDec<'_>) -> Result<LoggedCall, CodecError> {
    Ok(match d.u32("call tag")? {
        0 => LoggedCall::CommDup {
            parent: d.u64("dup parent")?,
            result: d.u64("dup result")?,
        },
        1 => LoggedCall::CommSplit {
            parent: d.u64("split parent")?,
            color: d.i32("split color")?,
            key: d.i32("split key")?,
            result: d.u64("split result")?,
        },
        2 => LoggedCall::CommCreate {
            parent: d.u64("create parent")?,
            group: d.u64("create group")?,
            result: if d.boolean("create some")? {
                Some(d.u64("create result")?)
            } else {
                None
            },
        },
        3 => LoggedCall::CommFree {
            comm: d.u64("free comm")?,
        },
        4 => {
            let parent = d.u64("cart parent")?;
            let (dims, periodic) = dec_cart(d)?;
            LoggedCall::CartCreate {
                parent,
                dims,
                periodic,
                result: d.u64("cart result")?,
            }
        }
        5 => LoggedCall::CommGroup {
            comm: d.u64("cg comm")?,
            members: dec_seq(d, "cg members", |d| d.u32("cg member"))?,
            result: d.u64("cg result")?,
        },
        6 => LoggedCall::GroupIncl {
            group: d.u64("gi group")?,
            ranks: dec_seq(d, "gi ranks", |d| d.u32("gi rank"))?,
            result: d.u64("gi result")?,
        },
        7 => LoggedCall::GroupExcl {
            group: d.u64("ge group")?,
            ranks: dec_seq(d, "ge ranks", |d| d.u32("ge rank"))?,
            result: d.u64("ge result")?,
        },
        8 => LoggedCall::GroupFree {
            group: d.u64("gf group")?,
        },
        9 => LoggedCall::TypeBase {
            base: dec_base(d.u32("tb base")?)?,
            result: d.u64("tb result")?,
        },
        10 => LoggedCall::TypeContiguous {
            count: d.u32("tc count")?,
            inner: d.u64("tc inner")?,
            result: d.u64("tc result")?,
        },
        11 => LoggedCall::TypeVector {
            count: d.u32("tv count")?,
            blocklen: d.u32("tv blocklen")?,
            stride: d.u32("tv stride")?,
            inner: d.u64("tv inner")?,
            result: d.u64("tv result")?,
        },
        12 => LoggedCall::TypeFree {
            dtype: d.u64("tf dtype")?,
        },
        tag => {
            return Err(CodecError::BadTag {
                what: "logged call",
                tag,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restart::compact::derive_rebind;
    use mana_sim::memory::DenseSnap;

    /// Decode flat bytes (the copy-fallback path).
    fn decode(bytes: &[u8]) -> Result<CheckpointImage, CodecError> {
        CheckpointImage::decode_shared(&ImageBytes::from_vec(bytes.to_vec())).map(|(img, _)| img)
    }

    fn sample() -> CheckpointImage {
        let mut counters = PairCounters::default();
        counters.on_send(1);
        counters.on_send(1);
        counters.on_recv(2);
        let log = vec![
            LoggedCall::TypeBase {
                base: BaseType::Double,
                result: 0x3000_0000,
            },
            LoggedCall::CommDup {
                parent: 0x1000_0000,
                result: 0x1000_0001,
            },
            LoggedCall::CartCreate {
                parent: 0x1000_0000,
                dims: vec![4, 2],
                periodic: vec![true, false],
                result: 0x1000_0002,
            },
        ];
        CheckpointImage {
            rank: 3,
            nranks: 8,
            ckpt_id: 1,
            app_name: "gromacs".to_string(),
            seed: 42,
            regions: vec![
                RegionSnapshot {
                    start: 0x1000,
                    len: 16,
                    half: Half::Upper,
                    kind: RegionKind::Mmap,
                    name: "arr".to_string(),
                    content: SnapshotContent::Dense(DenseSnap::from_vec(vec![9; 16])),
                },
                RegionSnapshot {
                    start: 0x4000,
                    len: 1 << 20,
                    half: Half::Upper,
                    kind: RegionKind::Text,
                    name: "app [text]".to_string(),
                    content: SnapshotContent::Pattern { seed: 7 },
                },
            ],
            upper_cursor: 0x7f70_0000_0000,
            comms: vec![VirtCommEntry {
                virt: 0x1000_0000,
                members: vec![0, 1, 2, 3, 4, 5, 6, 7],
                cart_dims: vec![4, 2],
                cart_periodic: vec![true, false],
            }],
            groups: vec![0x2000_0000],
            dtypes: vec![0x3000_0000, 0x3000_0001],
            rebind: derive_rebind(0x1000_0000, &log),
            log,
            counters,
            buffered: vec![BufferedMsg {
                comm_virt: 0x1000_0000,
                src_local: 5,
                src_global: 5,
                tag: 99,
                data: vec![1, 2, 3],
                modeled: 4096,
            }],
            pending: vec![PendingColl {
                vreq: 0x4000_0000,
                comm_virt: 0x1000_0000,
                kind: PendingKind::Iallreduce {
                    data: vec![0; 8],
                    base: BaseType::Double,
                    op: ReduceOp::Sum,
                },
            }],
            ops_done: 17,
            allocs: vec![(0x1000, 16)],
            slots: vec![
                crate::shared::SlotState::Empty,
                crate::shared::SlotState::RecvPosted {
                    comm_virt: 0x1000_0000,
                    src: mana_mpi::SrcSpec::Any,
                    tag: mana_mpi::TagSpec::Tag(4),
                    arr_addr: 0x1000,
                    offset: 8,
                },
                crate::shared::SlotState::SendIssued { vreq: None },
            ],
            slot_seq: 3,
            slot_seq_at_step: 1,
            world_virt: 0x1000_0000,
            step_created: vec![0x1000_0001],
            dirty: vec![RegionDirty {
                start: 0x1000,
                lineage: 0xABCD,
                seq: 4,
                base_seq: Some(3),
                page_count: 1,
                pages: vec![1],
            }],
        }
    }

    #[test]
    fn roundtrip() {
        let img = sample();
        let bytes = img.encode().to_vec();
        assert_eq!(decode(&bytes).expect("decode"), img);
        // The dense payload appears verbatim: the first region's 16
        // content bytes follow its u64 length prefix.
        let needle = [9u8; 16];
        assert!(
            bytes.windows(16).any(|w| w == needle),
            "dense content not serialized contiguously"
        );
    }

    #[test]
    fn embedded_image_must_fill_its_length_prefix() {
        let wire = sample().encode().to_vec();
        let embed = |payload: &[u8]| {
            let mut e = ScatterEnc::new();
            e.bytes(payload);
            e.u32(0xFEED); // the outer format's next field
            e.finish()
        };
        let exact = embed(&wire);
        let mut d = ScatterDec::new(&exact);
        assert_eq!(decode_embedded(&mut d, "meta"), Ok(sample()));
        assert_eq!(d.u32("next"), Ok(0xFEED));
        // A prefix longer or shorter than the image is a typed error.
        for payload in [[&wire[..], &[0]].concat(), wire[..wire.len() - 1].to_vec()] {
            assert_eq!(
                decode_embedded(&mut ScatterDec::new(&embed(&payload)), "meta"),
                Err(CodecError::Truncated { what: "meta" })
            );
        }
    }

    #[test]
    fn decode_shared_recovers_stored_pages() {
        let mut img = sample();
        img.regions[0] = RegionSnapshot {
            start: 0x1000,
            len: 3 * 4096,
            half: Half::Upper,
            kind: RegionKind::Mmap,
            name: "arr".to_string(),
            content: SnapshotContent::Dense(DenseSnap::from_vec(vec![0xAB; 3 * 4096])),
        };
        let bytes = img.encode();
        let (back, stats) = CheckpointImage::decode_shared(&bytes).expect("decode");
        assert_eq!(back, img);
        assert_eq!(stats.pages_shared, 3, "all dense pages shared");
        // The recovered rope aliases the original snapshot's pages.
        let (orig, got) = match (&img.regions[0].content, &back.regions[0].content) {
            (SnapshotContent::Dense(a), SnapshotContent::Dense(b)) => (a, b),
            _ => unreachable!(),
        };
        for i in 0..orig.page_count() {
            assert!(got.shares_page(orig, i), "page {i} was copied");
        }
    }

    #[test]
    fn decode_shared_uses_the_attachment() {
        let img = Arc::new(sample());
        let bytes = CheckpointImage::encode_shared(&img);
        let (back, stats) = CheckpointImage::decode_shared(&bytes).expect("decode");
        assert_eq!(back, *img);
        assert_eq!(stats.bytes_copied, 0, "attachment skips the wire decode");
        assert_eq!(stats.pages_shared, img.dense_page_count());
    }

    #[test]
    fn an_envelope_keeps_the_image_it_wraps_but_is_not_one() {
        let img = Arc::new(sample());
        let wrap = |buf: ScatterBuf| {
            let mut env = ScatterBuf::from_vec(b"envelope".to_vec());
            env.append(buf);
            let digest = env.len() as u64;
            (env, digest)
        };
        let env = CheckpointImage::encode_shared(&img).frame_with(wrap);
        assert!(env.image().is_none() && env.rank_image().is_none());
        assert!(Arc::ptr_eq(env.framed().unwrap(), &img));
        assert_eq!(env.record_digest(), Some(env.len() as u64));
        // Framing an envelope again keeps the innermost image and records
        // the outer digest.
        let twice = env.clone().frame_with(wrap);
        assert!(Arc::ptr_eq(twice.framed().unwrap(), &img));
        assert_eq!(twice.record_digest(), Some(twice.len() as u64));
        // Bytes cut out of the envelope carry nothing.
        let cut = ImageBytes::from(env.into_scatter());
        assert!(cut.framed().is_none() && cut.record_digest().is_none());
        assert!(ImageBytes::from_vec(vec![1; 8])
            .frame_with(wrap)
            .framed()
            .is_none());
    }

    #[test]
    fn decode_shared_matches_flat_decode_on_foreign_bytes() {
        // A flat, non-canonically-chunked wrapping still decodes — it just
        // pays the copies.
        let img = sample();
        let flat = ImageBytes::from_vec(img.encode().to_vec());
        let (back, stats) = CheckpointImage::decode_shared(&flat).expect("decode");
        assert_eq!(back, img);
        assert_eq!(stats.pages_shared, 0);
        assert!(stats.bytes_copied > 0);
    }

    #[test]
    fn sizes() {
        let img = sample();
        assert_eq!(img.logical_bytes(), 16 + (1 << 20) + 4096);
        assert_eq!(img.dense_bytes(), 16);
        // Encoded size reflects dense content only (pattern stored as
        // descriptor).
        assert!(img.encode().len() < 4096);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().encode().to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(decode(&bytes), Err(CodecError::BadMagic(_))));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample().encode().to_vec();
        // The version field sits right after the 8-byte magic; every
        // version but the current one is refused, older ones included.
        for v in [0, 1, 2, VERSION + 1, 0xEE] {
            bytes[8..12].copy_from_slice(&u32::to_le_bytes(v));
            assert_eq!(decode(&bytes), Err(CodecError::BadVersion(v)));
        }
    }

    #[test]
    fn invalid_utf8_name_is_its_own_error() {
        let mut bytes = sample().encode().to_vec();
        // app_name's first byte follows magic(8) + version(4) + rank(4) +
        // nranks(4) + ckpt_id(8) + its length prefix(8).
        bytes[36] = 0xFF;
        assert_eq!(
            decode(&bytes),
            Err(CodecError::BadUtf8 { what: "app_name" })
        );
    }

    #[test]
    fn corrupted_enum_tags_rejected() {
        let img = sample();
        let bytes = img.encode().to_vec();
        let good = decode(&bytes).expect("sane sample");
        assert_eq!(img, good);
        // The first region's content tag follows magic(8) + version(4) +
        // rank(4) + nranks(4) + ckpt_id(8) + app_name(8+7) + seed(8) +
        // cursor(8) + ops_done(8) + regions len(8) + start(8) + len(8) +
        // half(4) + kind(4) + name(8+3). Poison it and decode must fail
        // with BadTag, not garbage.
        let off = 8 + 4 + 4 + 4 + 8 + (8 + 7) + 8 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + (8 + 3);
        let mut bad = bytes.clone();
        bad[off..off + 4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        assert!(
            matches!(
                decode(&bad),
                Err(CodecError::BadTag {
                    what: "region content",
                    ..
                })
            ),
            "poisoned content tag not rejected"
        );
    }

    #[test]
    fn truncation_rejected_at_every_prefix() {
        // A truncated image must *always* produce a typed error — never a
        // panic, never a silent partial decode.
        let bytes = sample().encode().to_vec();
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn empty_image_variants_roundtrip() {
        // Edge case: a rank with no drained messages, no pending
        // collectives, no log, no regions.
        let img = CheckpointImage {
            regions: Vec::new(),
            log: Vec::new(),
            buffered: Vec::new(),
            pending: Vec::new(),
            comms: Vec::new(),
            groups: Vec::new(),
            dtypes: Vec::new(),
            allocs: Vec::new(),
            slots: Vec::new(),
            counters: PairCounters::default(),
            rebind: Vec::new(),
            step_created: Vec::new(),
            dirty: Vec::new(),
            ..sample()
        };
        let back = decode(&img.encode().to_vec()).expect("decode");
        assert_eq!(img, back);
        assert_eq!(back.dense_bytes(), 0);
        assert_eq!(back.logical_bytes(), 4096);
    }
}
