//! The walk cache: whole walks of the compiled engine, replayed for
//! repeated headers (DESIGN §17).
//!
//! While nothing observes a packet — instrumentation off, no trace — and
//! the program has no P4 flow cache, `Walk::run` is a pure function of
//! the packet's header slots: it reads them, the program and the cost
//! parameters, and writes the slots, the drop and egress verdicts, the
//! report and the packet sequence. A record of one walk's output, keyed
//! by the header it started from, therefore answers every later packet
//! carrying that header to the bit, until the program changes.
//!
//! Records sit in a direct-mapped array of [`RECORDS`]. Each slot also
//! keeps a 16-bit tag of the last header that missed there, and a
//! header is recorded on its second sighting only: traffic that never
//! repeats writes tags, never records. Every control op bumps the epoch,
//! and a record of an older one never matches. The storage is allocated
//! by the first packet the cache may serve, so an executor that runs no
//! packet (a sharded NIC's control replica) holds none.

use crate::compiled::FX_SEED;
use crate::exec::ExecReport;
use crate::packet::Packet;
use crate::prefetch;
use crate::smallkey::same_key;
use pipeleon_ir::{CacheRole, ProgramGraph};

/// Record slots: 1,024 × 192 B = 192 KB an executor. At 2,048 the load
/// balancer's `serve` process grew 17 % in peak RSS; `datapath_skewed`'s
/// 400 flows fit either way.
const RECORDS: usize = 1024;

/// Header words a record holds. A program with more fields is walked
/// every time; every scenario program but two has at most 8.
const WIDE: usize = 8;

/// One walk: the header it started from and everything it wrote. Three
/// cache lines.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Record {
    /// The epoch the walk ran in; 0 while the slot is being refilled.
    epoch: u64,
    report: ExecReport,
    egress: Option<u32>,
    /// The header before the walk (its first `width` words are live).
    key: [u64; WIDE],
    /// The header after it.
    out: [u64; WIDE],
}

const EMPTY: Record = Record {
    epoch: 0,
    report: ExecReport {
        latency_ns: 0.0,
        dropped: false,
        migrations: 0,
        probes: 0,
        counter_updates: 0,
    },
    egress: None,
    key: [0; WIDE],
    out: [0; WIDE],
};

/// Owned by the walk, so per shard, like the lookup memo.
#[derive(Debug, Default)]
pub(crate) struct WalkCache {
    epoch: u64,
    /// The program's field count while it may be cached, else 0.
    width: usize,
    tags: Vec<u16>,
    records: Vec<Record>,
}

impl WalkCache {
    /// Retires every record — the program, its lowering or the walk's
    /// settings may have changed — and reads off `graph` whether the
    /// program may be cached at all.
    pub(crate) fn invalidate(&mut self, graph: &ProgramGraph) {
        self.epoch += 1;
        let flow_cache = graph
            .tables()
            .any(|(_, t)| t.cache_role == CacheRole::FlowCache);
        let fields = graph.fields.len();
        self.width = if flow_cache || fields > WIDE {
            0
        } else {
            fields
        };
    }

    /// The slot a header homes to and its tag: the top bits of an
    /// FxHash over its words. `None` for a header the cache cannot hold
    /// (a program it may not cache, a packet narrower or wider than the
    /// program's fields).
    #[inline]
    fn home(&self, slots: &[u64]) -> Option<(usize, u16)> {
        if slots.len() != self.width || self.width == 0 {
            return None;
        }
        let h = slots.iter().fold(0, |h, &w| fx_step(h, w));
        let at = (h >> (64 - RECORDS.trailing_zeros())) as usize;
        Some((at, (h >> 32) as u16 | 1))
    }

    /// Answers an unwatched packet from the walk recorded for its header:
    /// `Ok` with the report once the packet holds the walk's output;
    /// otherwise `Err` with the slot to [`WalkCache::fill`] after the
    /// walk, if the header is admitted (its second sighting).
    #[inline]
    pub(crate) fn lookup(&mut self, packet: &mut Packet) -> Result<ExecReport, Option<usize>> {
        if packet.dropped || packet.egress_port.is_some() {
            return Err(None);
        }
        let Some((at, tag)) = self.home(packet.slots()) else {
            return Err(None);
        };
        if self.records.is_empty() {
            self.allocate();
        }
        if self.tags[at] != tag {
            self.tags[at] = tag;
            return Err(None);
        }
        let (n, rec) = (self.width, &mut self.records[at]);
        if rec.epoch == self.epoch && same_key(&rec.key[..n], packet.slots()) {
            packet.slots_mut().copy_from_slice(&rec.out[..n]);
            packet.dropped = rec.report.dropped;
            packet.egress_port = rec.egress;
            return Ok(rec.report);
        }
        rec.epoch = 0;
        rec.key[..n].copy_from_slice(packet.slots());
        Err(Some(at))
    }

    #[cold]
    fn allocate(&mut self) {
        self.tags = vec![0; RECORDS];
        self.records = vec![EMPTY; RECORDS];
    }

    /// Records the walk `packet` has just taken from the header
    /// [`WalkCache::lookup`] admitted at `at`.
    pub(crate) fn fill(&mut self, at: usize, packet: &Packet, report: &ExecReport) {
        let (n, rec) = (self.width, &mut self.records[at]);
        if packet.slots().len() == n {
            rec.out[..n].copy_from_slice(packet.slots());
            rec.egress = packet.egress_port;
            rec.report = *report;
            rec.epoch = self.epoch;
        }
    }

    /// Hints the record `packet` would be answered from, if its header
    /// left the tag there.
    #[inline]
    pub(crate) fn prefetch(&self, packet: &Packet) {
        let Some((at, tag)) = self.home(packet.slots()) else {
            return;
        };
        if self.tags.get(at) == Some(&tag) {
            let lines = (&self.records[at] as *const Record).cast::<[u8; 64]>();
            for i in 0..3 {
                prefetch::line(lines.wrapping_add(i));
            }
        }
    }
}

/// One word into an FxHash.
#[inline]
pub(crate) fn fx_step(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(FX_SEED)
}

#[cfg(test)]
impl WalkCache {
    /// Whether a live record holds `packet`'s header.
    pub(crate) fn holds(&self, packet: &Packet) -> bool {
        let Some((at, _)) = self.home(packet.slots()) else {
            return false;
        };
        self.records.get(at).is_some_and(|rec| {
            rec.epoch == self.epoch && same_key(&rec.key[..self.width], packet.slots())
        })
    }

    /// Live records.
    pub(crate) fn live(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.epoch == self.epoch)
            .count()
    }

    /// Bytes of storage allocated.
    pub(crate) fn allocated_bytes(&self) -> usize {
        self.records.len() * std::mem::size_of::<Record>() + self.tags.len() * 2
    }
}
