//! Action streams: the second intake path of Fig. 1 ("as a data stream").
//!
//! A stream delivers [`Action`]s in batches. Three sources are provided:
//!
//! * [`ReplayStream`] — replays a finished dataset's action log (used by
//!   the stream-mining benchmarks so batch content is reproducible),
//! * [`ChannelStream`] — a bounded crossbeam channel for live producers
//!   running on other threads,
//! * [`codec`] — a length-free fixed-width binary frame codec
//!   (`user:u32 item:u32 value:f32`, little-endian) for wire ingestion.
//!
//! [`IngestBuffer`] sits between any stream and the live engine: it
//! drains batches into a pending buffer and cuts epoch-stamped
//! [`ActionDelta`]s on demand, so refresh cadence is decoupled from
//! arrival cadence.

use crate::dataset::{Action, UserData};
use crate::ids::{ItemId, UserId};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};

/// A pull-based source of action batches.
pub trait ActionStream {
    /// Pull up to `max` actions into `out`. Returns the number delivered;
    /// `0` means the stream is exhausted (for finite sources) or currently
    /// dry (for live sources — check [`ActionStream::is_live`]).
    fn next_batch(&mut self, max: usize, out: &mut Vec<Action>) -> usize;

    /// Whether the source may still deliver actions in the future even
    /// after returning an empty batch.
    fn is_live(&self) -> bool {
        false
    }
}

/// Replays a dataset's action log in insertion order.
#[derive(Debug, Clone)]
pub struct ReplayStream<'a> {
    actions: &'a [Action],
    pos: usize,
}

impl<'a> ReplayStream<'a> {
    /// Stream over all actions of `data`.
    pub fn new(data: &'a UserData) -> Self {
        Self {
            actions: data.actions(),
            pos: 0,
        }
    }

    /// Stream over an arbitrary action slice — e.g. one recovered WAL
    /// frame's delta, replayed through the normal ingest path.
    pub fn from_actions(actions: &'a [Action]) -> Self {
        Self { actions, pos: 0 }
    }

    /// Remaining undelivered actions.
    pub fn remaining(&self) -> usize {
        self.actions.len() - self.pos
    }
}

impl ActionStream for ReplayStream<'_> {
    fn next_batch(&mut self, max: usize, out: &mut Vec<Action>) -> usize {
        let n = max.min(self.remaining());
        out.extend_from_slice(&self.actions[self.pos..self.pos + n]);
        self.pos += n;
        n
    }
}

/// Live stream backed by a bounded channel. Producers hold a
/// [`StreamProducer`]; dropping every producer ends the stream.
pub struct ChannelStream {
    rx: Receiver<Action>,
    closed: bool,
}

/// Sending half of a [`ChannelStream`].
#[derive(Clone)]
pub struct StreamProducer {
    tx: Sender<Action>,
}

impl StreamProducer {
    /// Send one action, blocking if the channel is full.
    ///
    /// Returns `false` if the consumer is gone.
    pub fn send(&self, action: Action) -> bool {
        self.tx.send(action).is_ok()
    }
}

impl ChannelStream {
    /// Create a stream with the given channel capacity.
    pub fn with_capacity(capacity: usize) -> (StreamProducer, Self) {
        let (tx, rx) = bounded(capacity);
        (StreamProducer { tx }, Self { rx, closed: false })
    }
}

impl ActionStream for ChannelStream {
    fn next_batch(&mut self, max: usize, out: &mut Vec<Action>) -> usize {
        let mut n = 0;
        while n < max {
            match self.rx.try_recv() {
                Ok(a) => {
                    out.push(a);
                    n += 1;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.closed = true;
                    break;
                }
            }
        }
        n
    }

    fn is_live(&self) -> bool {
        !self.closed
    }
}

/// One epoch's worth of ingested actions, cut from an [`IngestBuffer`].
///
/// The epoch stamp is the buffer's cut counter, starting at 0. The engine
/// layer publishes one engine version per applied non-empty delta on top
/// of the bootstrap engine (epoch 0), so the first published engine
/// reflecting a delta stamped `n` is engine epoch `n + 1`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActionDelta {
    /// The cut ordinal this delta was stamped with.
    pub epoch: u64,
    /// The actions, in arrival order.
    pub actions: Vec<Action>,
}

impl ActionDelta {
    /// Number of actions in the delta.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the delta carries no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// Accumulates actions drained from any [`ActionStream`] and cuts them
/// into epoch-stamped [`ActionDelta`]s.
///
/// The buffer is the seam between arrival cadence (producers push whenever
/// they like) and refresh cadence (the engine applies a delta when it
/// decides to): [`IngestBuffer::pull`] drains a stream without applying
/// anything, [`IngestBuffer::cut`] hands the pending actions over as one
/// stamped delta.
#[derive(Debug, Default)]
pub struct IngestBuffer {
    pending: Vec<Action>,
    next_epoch: u64,
}

impl IngestBuffer {
    /// Empty buffer starting at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty buffer whose next cut is stamped `next_epoch` — how recovery
    /// resumes the epoch sequence after replaying a checkpoint and its
    /// surviving WAL frames.
    pub fn resume(next_epoch: u64) -> Self {
        Self {
            next_epoch,
            ..Self::default()
        }
    }

    /// Drain up to `max` actions from `stream` into the pending buffer,
    /// looping over batches until the stream runs dry (or `max` is hit).
    /// Returns the number drained by this call.
    pub fn pull(&mut self, stream: &mut dyn ActionStream, max: usize) -> usize {
        let mut drained = 0;
        while drained < max {
            let got = stream.next_batch(max - drained, &mut self.pending);
            if got == 0 {
                break;
            }
            drained += got;
        }
        drained
    }

    /// Actions buffered but not yet cut into a delta.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The buffered actions themselves, in arrival order — what the next
    /// cut will carry. The durable engine logs exactly this slice (stamped
    /// [`IngestBuffer::next_epoch`]) to the WAL *before* cutting, so a
    /// crash between the append and the apply replays the same delta.
    pub fn pending_actions(&self) -> &[Action] {
        &self.pending
    }

    /// The epoch stamp the next non-empty cut will carry.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Cut the pending actions into one stamped delta. An empty cut does
    /// not consume an epoch (the engine publishes nothing for it).
    pub fn cut(&mut self) -> ActionDelta {
        let actions = std::mem::take(&mut self.pending);
        let epoch = self.next_epoch;
        if !actions.is_empty() {
            self.next_epoch += 1;
        }
        ActionDelta { epoch, actions }
    }
}

/// Fixed-width binary frame codec for actions on the wire.
pub mod codec {
    use super::*;

    /// Bytes per encoded action.
    pub const FRAME_LEN: usize = 12;

    /// Encode a slice of actions into a fresh buffer.
    pub fn encode(actions: &[Action]) -> Bytes {
        let mut buf = BytesMut::with_capacity(actions.len() * FRAME_LEN);
        for a in actions {
            buf.put_u32_le(a.user.raw());
            buf.put_u32_le(a.item.raw());
            buf.put_f32_le(a.value);
        }
        buf.freeze()
    }

    /// Decode as many whole frames as `buf` contains, consuming them.
    /// Trailing partial frames are left in the buffer for the next call.
    pub fn decode(buf: &mut BytesMut, out: &mut Vec<Action>) -> usize {
        let mut n = 0;
        while buf.len() >= FRAME_LEN {
            let user = UserId::new(buf.get_u32_le());
            let item = ItemId::new(buf.get_u32_le());
            let value = buf.get_f32_le();
            out.push(Action { user, item, value });
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::UserDataBuilder;
    use crate::schema::Schema;

    fn sample_data(n_actions: usize) -> UserData {
        let mut b = UserDataBuilder::new(Schema::new());
        let u = b.user("u");
        let i = b.item("i", None);
        for k in 0..n_actions {
            b.action(u, i, k as f32);
        }
        b.build()
    }

    #[test]
    fn replay_delivers_everything_in_order() {
        let d = sample_data(10);
        let mut s = ReplayStream::new(&d);
        let mut out = Vec::new();
        assert_eq!(s.next_batch(4, &mut out), 4);
        assert_eq!(s.next_batch(4, &mut out), 4);
        assert_eq!(s.next_batch(4, &mut out), 2);
        assert_eq!(s.next_batch(4, &mut out), 0);
        assert!(!s.is_live());
        assert_eq!(out.len(), 10);
        for (k, a) in out.iter().enumerate() {
            assert_eq!(a.value, k as f32);
        }
    }

    #[test]
    fn channel_stream_live_then_closed() {
        let (tx, mut stream) = ChannelStream::with_capacity(8);
        let u = UserId::new(0);
        let i = ItemId::new(0);
        assert!(tx.send(Action {
            user: u,
            item: i,
            value: 1.0
        }));
        assert!(tx.send(Action {
            user: u,
            item: i,
            value: 2.0
        }));
        let mut out = Vec::new();
        assert_eq!(stream.next_batch(10, &mut out), 2);
        assert!(stream.is_live());
        drop(tx);
        assert_eq!(stream.next_batch(10, &mut out), 0);
        assert!(!stream.is_live());
    }

    #[test]
    fn channel_stream_across_threads() {
        let (tx, mut stream) = ChannelStream::with_capacity(4);
        let handle = std::thread::spawn(move || {
            for k in 0..100 {
                tx.send(Action {
                    user: UserId::new(k),
                    item: ItemId::new(0),
                    value: k as f32,
                });
            }
        });
        let mut out = Vec::new();
        while stream.is_live() || !matches!(stream.next_batch(16, &mut out), 0) {
            stream.next_batch(16, &mut out);
            if out.len() >= 100 {
                break;
            }
            std::thread::yield_now();
        }
        handle.join().unwrap();
        stream.next_batch(usize::MAX, &mut out);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn codec_round_trips() {
        let actions = vec![
            Action {
                user: UserId::new(1),
                item: ItemId::new(2),
                value: 3.5,
            },
            Action {
                user: UserId::new(u32::MAX),
                item: ItemId::new(0),
                value: -1.0,
            },
        ];
        let encoded = codec::encode(&actions);
        assert_eq!(encoded.len(), 2 * codec::FRAME_LEN);
        let mut buf = BytesMut::from(&encoded[..]);
        let mut out = Vec::new();
        assert_eq!(codec::decode(&mut buf, &mut out), 2);
        assert_eq!(out, actions);
        assert!(buf.is_empty());
    }

    #[test]
    fn codec_keeps_partial_frames() {
        let actions = vec![Action {
            user: UserId::new(7),
            item: ItemId::new(8),
            value: 9.0,
        }];
        let encoded = codec::encode(&actions);
        let mut buf = BytesMut::new();
        let mut out = Vec::new();
        // Feed all but the last byte: nothing decodes.
        buf.extend_from_slice(&encoded[..codec::FRAME_LEN - 1]);
        assert_eq!(codec::decode(&mut buf, &mut out), 0);
        assert_eq!(buf.len(), codec::FRAME_LEN - 1);
        // Feed the final byte: one frame decodes.
        buf.extend_from_slice(&encoded[codec::FRAME_LEN - 1..]);
        assert_eq!(codec::decode(&mut buf, &mut out), 1);
        assert_eq!(out[0], actions[0]);
    }

    /// The `is_live` contract: a dry live stream (producers still holding
    /// the sender) answers `0` but stays live; only disconnection makes an
    /// empty batch mean "exhausted".
    #[test]
    fn channel_stream_dry_vs_exhausted() {
        let (tx, mut stream) = ChannelStream::with_capacity(4);
        let mut out = Vec::new();
        // Dry, not exhausted: nothing sent yet, producer alive.
        assert_eq!(stream.next_batch(10, &mut out), 0);
        assert!(stream.is_live(), "dry stream with a producer is live");
        // Still live after delivering and draining.
        assert!(tx.send(Action {
            user: UserId::new(0),
            item: ItemId::new(0),
            value: 1.0
        }));
        assert_eq!(stream.next_batch(10, &mut out), 1);
        assert_eq!(stream.next_batch(10, &mut out), 0);
        assert!(stream.is_live(), "drained stream with a producer is live");
        // Exhausted: every producer gone, empty batch flips is_live.
        drop(tx);
        assert_eq!(stream.next_batch(10, &mut out), 0);
        assert!(!stream.is_live(), "disconnected stream is exhausted");
    }

    #[test]
    fn ingest_buffer_pulls_and_cuts_epoch_stamped_deltas() {
        let d = sample_data(10);
        let mut stream = ReplayStream::new(&d);
        let mut buf = IngestBuffer::new();
        // Pull caps at `max` even when the stream has more.
        assert_eq!(buf.pull(&mut stream, 4), 4);
        assert_eq!(buf.pending(), 4);
        let first = buf.cut();
        assert_eq!((first.epoch, first.len()), (0, 4));
        assert_eq!(buf.pending(), 0);
        // An empty cut consumes no epoch.
        let empty = buf.cut();
        assert!(empty.is_empty());
        assert_eq!(buf.next_epoch(), 1);
        // Pull loops across multiple underlying batches up to max.
        assert_eq!(buf.pull(&mut stream, usize::MAX), 6);
        let second = buf.cut();
        assert_eq!((second.epoch, second.len()), (1, 6));
        // Delta contents preserve arrival order.
        let all: Vec<f32> = first
            .actions
            .iter()
            .chain(second.actions.iter())
            .map(|a| a.value)
            .collect();
        assert_eq!(all, (0..10).map(|k| k as f32).collect::<Vec<_>>());
    }

    #[test]
    fn resume_continues_the_epoch_sequence() {
        let d = sample_data(4);
        let mut stream = ReplayStream::from_actions(&d.actions()[1..]);
        assert_eq!(stream.remaining(), 3);
        let mut buf = IngestBuffer::resume(7);
        assert_eq!(buf.next_epoch(), 7);
        buf.pull(&mut stream, usize::MAX);
        assert_eq!(buf.pending_actions().len(), 3);
        assert_eq!(buf.pending_actions()[0].value, 1.0);
        let delta = buf.cut();
        assert_eq!((delta.epoch, delta.len()), (7, 3));
        assert_eq!(buf.next_epoch(), 8);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// encode → arbitrary byte-split feeding → decode is the identity:
        /// however the wire fragments frames, the decoded action sequence
        /// equals the input and nothing is left over.
        #[test]
        fn prop_codec_round_trips_across_frame_splits(
            raw in proptest::collection::vec((0u32..1000, 0u32..1000, -100i32..100), 0..40),
            cuts in proptest::collection::vec(1usize..37, 0..12)
        ) {
            let actions: Vec<Action> = raw
                .iter()
                .map(|&(u, i, v)| Action {
                    user: UserId::new(u),
                    item: ItemId::new(i),
                    value: v as f32,
                })
                .collect();
            let encoded = codec::encode(&actions);
            prop_assert_eq!(encoded.len(), actions.len() * codec::FRAME_LEN);
            // Feed the wire bytes in arbitrary fragments; partial frames
            // must buffer across calls.
            let mut buf = BytesMut::new();
            let mut out = Vec::new();
            let mut pos = 0;
            for &cut in &cuts {
                let end = (pos + cut).min(encoded.len());
                buf.extend_from_slice(&encoded[pos..end]);
                codec::decode(&mut buf, &mut out);
                prop_assert!(buf.len() < codec::FRAME_LEN);
                pos = end;
            }
            buf.extend_from_slice(&encoded[pos..]);
            codec::decode(&mut buf, &mut out);
            prop_assert_eq!(out, actions);
            prop_assert!(buf.is_empty());
        }
    }
}
