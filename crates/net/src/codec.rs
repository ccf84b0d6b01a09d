//! Length-prefixed binary wire codec for protocol messages.
//!
//! Every frame is `MAGIC (4 bytes) | LEN (u32 LE) | payload (LEN bytes)`.
//! The payload layouts are fixed — a kind byte, little-endian fixed-width
//! integers, and a presence byte for the optional entry — so encoding and
//! decoding are straight byte shuffles with no schema machinery and no
//! external serialisation dependency:
//!
//! ```text
//! request  = 0x01 | request_id u64 LE | server u32 LE | epoch u64 LE | op
//! op       = 0x00 (read)  |  0x01 ts u64 LE value u64 LE (write)
//! reply    = 0x02 | request_id u64 LE | server u32 LE | epoch u64 LE | entry
//! entry    = 0x00 (none)  |  0x01 ts u64 LE value u64 LE (some)
//!          | 0x02 (stale: fenced by the epoch gate — replies only)
//! batch    = 0x03 | count u8 (1..=64) | item{count}
//! item     = request | reply          (self-describing 22/38-byte layouts)
//! ```
//!
//! Wire-format version 2 (`BQN2`) added the epoch stamp to both directions
//! and the `stale` entry tag, carrying the reconfiguration protocol's fencing
//! signal: a stale reply's epoch field is the *server's* current epoch (what
//! the lagging client should resynchronise to), while every served reply
//! echoes the request's stamp.
//!
//! # Batched frames
//!
//! A **`WireBatch`** frame (kind `0x03`) carries up to [`MAX_BATCH`]
//! messages under one `MAGIC | LEN` header, so a writer that has several
//! messages queued — a client's pipelined quorum fan-outs, a server's
//! coalesced replies — pays one header and one syscall for the lot instead
//! of one each. Items reuse the single-message payload layouts verbatim
//! (each item is self-describing: its entry/op tag determines whether it is
//! 14 or 30 bytes), so batching changes *framing only*, never message
//! semantics: [`FrameReader`] delivers the items of a batch one at a time
//! through the same [`FrameReader::next_message`] the single-message frames
//! use, in order. A batch that fails validation anywhere (bad count, corrupt
//! item, trailing bytes) is discarded **whole** and counted as one resync —
//! per-item salvage could silently reorder the stream.
//!
//! [`encode_request_batch`] / [`encode_reply_batch`] chunk arbitrarily long
//! message runs into maximal batch frames, emitting a plain single-message
//! frame when a chunk has only one message (a single-message frame is 2
//! bytes shorter than a 1-batch).
//!
//! # Robustness
//!
//! [`FrameReader`] is an incremental decoder fed arbitrary byte chunks (TCP
//! gives no message boundaries). It tolerates the two classic stream
//! corruptions:
//!
//! * **torn / garbled input** — when the buffer does not start with the
//!   magic, or a payload fails to decode, the reader discards bytes up to the
//!   next magic occurrence and counts a *resync*; a later well-formed frame
//!   decodes normally;
//! * **oversized frames** — a length prefix above [`MAX_PAYLOAD`] is rejected
//!   *before* any allocation (a 4 GiB length in a corrupt frame must not
//!   become a 4 GiB buffer), counted, and scanned past like garbage.
//!
//! The counters ([`FrameReader::resyncs`], [`FrameReader::oversized`]) let
//! transports expose corruption instead of silently riding through it.

use bqs_service::transport::{Operation, Reply};
use bqs_sim::server::Entry;

/// Frame preamble: "BQN" + wire-format version 2 (epoch stamps).
pub const MAGIC: [u8; 4] = *b"BQN2";

/// Hard ceiling on a frame's payload length. The largest legal payload is a
/// full batch of entry-bearing messages (`2 + 64 * 38 = 2434` bytes);
/// anything above this is corruption and is rejected before allocation.
pub const MAX_PAYLOAD: usize = 2560;

/// Maximum messages one `WireBatch` frame may carry (the batch `count` byte
/// is `1..=MAX_BATCH`). Sized so a full batch of 38-byte items stays under
/// [`MAX_PAYLOAD`] while amortising the frame header and the per-write
/// syscall ~64×.
pub const MAX_BATCH: usize = 64;

/// Bytes of `MAGIC | LEN` preceding every payload.
pub const HEADER_LEN: usize = MAGIC.len() + 4;

const KIND_REQUEST: u8 = 0x01;
const KIND_REPLY: u8 = 0x02;
const KIND_BATCH: u8 = 0x03;
const OP_READ: u8 = 0x00;
const OP_WRITE: u8 = 0x01;
const ENTRY_NONE: u8 = 0x00;
const ENTRY_SOME: u8 = 0x01;
/// Reply-only tag: the request was fenced by the server's epoch gate. The
/// body is empty (a fenced reply never carries an entry).
const ENTRY_STALE: u8 = 0x02;

/// Wire size of one message payload/item: the kind byte, id, server, epoch,
/// and the tagged 0- or 16-byte entry body.
const ITEM_SHORT: usize = 22;
const ITEM_LONG: usize = 38;

/// A request as it travels on the wire: [`bqs_service::transport::Request`]
/// minus the in-process reply channel (the connection itself is the reply
/// path on a socket transport).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireRequest {
    /// Correlation id, echoed verbatim by the server.
    pub request_id: u64,
    /// The server index the operation is addressed to.
    pub server: usize,
    /// The client's configuration epoch, checked against the server's gate.
    pub epoch: u64,
    /// The operation to perform.
    pub op: Operation,
}

/// Any decoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMessage {
    /// A client-to-server request.
    Request(WireRequest),
    /// A server-to-client reply.
    Reply(Reply),
}

/// Wire size of a request's payload/item.
fn request_item_len(request: &WireRequest) -> usize {
    match request.op {
        Operation::Read => ITEM_SHORT,
        Operation::Write(_) => ITEM_LONG,
    }
}

/// Wire size of a reply's payload/item.
fn reply_item_len(reply: &Reply) -> usize {
    match reply.entry {
        None => ITEM_SHORT,
        Some(_) => ITEM_LONG,
    }
}

/// Appends one request item (the single-message payload layout) to `buf`.
fn encode_request_item(request: &WireRequest, buf: &mut Vec<u8>) {
    let server = u32::try_from(request.server).expect("server index fits the wire format");
    buf.push(KIND_REQUEST);
    buf.extend_from_slice(&request.request_id.to_le_bytes());
    buf.extend_from_slice(&server.to_le_bytes());
    buf.extend_from_slice(&request.epoch.to_le_bytes());
    match request.op {
        Operation::Read => buf.push(OP_READ),
        Operation::Write(entry) => {
            buf.push(OP_WRITE);
            buf.extend_from_slice(&entry.timestamp.to_le_bytes());
            buf.extend_from_slice(&entry.value.to_le_bytes());
        }
    }
}

/// Appends one reply item (the single-message payload layout) to `buf`.
/// A stale (fenced) reply never carries an entry, so the `stale` flag fits
/// the entry tag: `0x02` instead of `0x00`.
fn encode_reply_item(reply: &Reply, buf: &mut Vec<u8>) {
    let server = u32::try_from(reply.server).expect("server index fits the wire format");
    debug_assert!(
        !(reply.stale && reply.entry.is_some()),
        "a fenced reply never carries an entry"
    );
    buf.push(KIND_REPLY);
    buf.extend_from_slice(&reply.request_id.to_le_bytes());
    buf.extend_from_slice(&server.to_le_bytes());
    buf.extend_from_slice(&reply.epoch.to_le_bytes());
    match (reply.stale, reply.entry) {
        (true, _) => buf.push(ENTRY_STALE),
        (false, None) => buf.push(ENTRY_NONE),
        (false, Some(entry)) => {
            buf.push(ENTRY_SOME);
            buf.extend_from_slice(&entry.timestamp.to_le_bytes());
            buf.extend_from_slice(&entry.value.to_le_bytes());
        }
    }
}

fn frame_header(payload_len: usize, buf: &mut Vec<u8>) {
    debug_assert!(payload_len <= MAX_PAYLOAD);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Appends one encoded request frame to `buf`.
///
/// # Panics
///
/// Panics if `server` does not fit the wire's `u32` server index.
pub fn encode_request(request: &WireRequest, buf: &mut Vec<u8>) {
    frame_header(request_item_len(request), buf);
    encode_request_item(request, buf);
}

/// Appends one encoded reply frame to `buf`.
///
/// # Panics
///
/// Panics if `reply.server` does not fit the wire's `u32` server index.
pub fn encode_reply(reply: &Reply, buf: &mut Vec<u8>) {
    frame_header(reply_item_len(reply), buf);
    encode_reply_item(reply, buf);
}

/// Appends `requests` to `buf` as a run of maximal `WireBatch` frames
/// (chunks of one message fall back to the plain single-message frame).
/// Encoding nothing appends nothing.
///
/// # Panics
///
/// Panics if any server index does not fit the wire's `u32`.
pub fn encode_request_batch(requests: &[WireRequest], buf: &mut Vec<u8>) {
    for chunk in requests.chunks(MAX_BATCH) {
        match chunk {
            [] => {}
            [single] => encode_request(single, buf),
            _ => {
                let payload_len = 2 + chunk.iter().map(request_item_len).sum::<usize>();
                frame_header(payload_len, buf);
                buf.push(KIND_BATCH);
                buf.push(chunk.len() as u8);
                for request in chunk {
                    encode_request_item(request, buf);
                }
            }
        }
    }
}

/// Appends `replies` to `buf` as a run of maximal `WireBatch` frames (chunks
/// of one message fall back to the plain single-message frame). Encoding
/// nothing appends nothing.
///
/// # Panics
///
/// Panics if any server index does not fit the wire's `u32`.
pub fn encode_reply_batch(replies: &[Reply], buf: &mut Vec<u8>) {
    for chunk in replies.chunks(MAX_BATCH) {
        match chunk {
            [] => {}
            [single] => encode_reply(single, buf),
            _ => {
                let payload_len = 2 + chunk.iter().map(reply_item_len).sum::<usize>();
                frame_header(payload_len, buf);
                buf.push(KIND_BATCH);
                buf.push(chunk.len() as u8);
                for reply in chunk {
                    encode_reply_item(reply, buf);
                }
            }
        }
    }
}

/// Decodes one message item from the front of `bytes`, returning it with the
/// number of bytes it occupied. `None` means the item is malformed.
fn decode_item(bytes: &[u8]) -> Option<(WireMessage, usize)> {
    let (&kind, rest) = bytes.split_first()?;
    let (id_bytes, rest) = rest.split_first_chunk::<8>()?;
    let request_id = u64::from_le_bytes(*id_bytes);
    let (server_bytes, rest) = rest.split_first_chunk::<4>()?;
    let server = u32::from_le_bytes(*server_bytes) as usize;
    let (epoch_bytes, rest) = rest.split_first_chunk::<8>()?;
    let epoch = u64::from_le_bytes(*epoch_bytes);
    let (&tag, rest) = rest.split_first()?;
    let (entry, stale, consumed) = match tag {
        ENTRY_NONE => (None, false, ITEM_SHORT),
        ENTRY_STALE => (None, true, ITEM_SHORT),
        ENTRY_SOME => {
            let (ts_bytes, rest) = rest.split_first_chunk::<8>()?;
            let (value_bytes, _) = rest.split_first_chunk::<8>()?;
            (
                Some(Entry {
                    timestamp: u64::from_le_bytes(*ts_bytes),
                    value: u64::from_le_bytes(*value_bytes),
                }),
                false,
                ITEM_LONG,
            )
        }
        _ => return None,
    };
    let message = match (kind, entry) {
        // The stale tag is reply-only: a "fenced request" is not a thing.
        (KIND_REQUEST, _) if stale => return None,
        (KIND_REQUEST, None) => WireMessage::Request(WireRequest {
            request_id,
            server,
            epoch,
            op: Operation::Read,
        }),
        (KIND_REQUEST, Some(entry)) => WireMessage::Request(WireRequest {
            request_id,
            server,
            epoch,
            op: Operation::Write(entry),
        }),
        (KIND_REPLY, entry) => WireMessage::Reply(Reply {
            server,
            request_id,
            entry,
            epoch,
            stale,
        }),
        _ => return None,
    };
    Some((message, consumed))
}

/// Decodes one payload (the bytes after `MAGIC | LEN`) — a single message or
/// a whole batch — appending the decoded messages to `out` in wire order.
/// `None` means the payload is malformed (nothing is appended — a batch is
/// accepted or rejected whole); the caller resynchronises.
fn decode_payload(payload: &[u8], out: &mut std::collections::VecDeque<WireMessage>) -> Option<()> {
    if payload.first() == Some(&KIND_BATCH) {
        let count = *payload.get(1)? as usize;
        if count == 0 || count > MAX_BATCH {
            return None;
        }
        let mut items = payload.get(2..)?;
        // Decoded in place; a batch that fails to decode leaves `out` as it
        // found it.
        let queued = out.len();
        for _ in 0..count {
            let Some((message, consumed)) = decode_item(items) else {
                out.truncate(queued);
                return None;
            };
            out.push_back(message);
            items = &items[consumed..];
        }
        if !items.is_empty() {
            out.truncate(queued);
            return None; // trailing bytes: the count lied, reject the frame
        }
        return Some(());
    }
    let (message, consumed) = decode_item(payload)?;
    if consumed != payload.len() {
        return None;
    }
    out.push_back(message);
    Some(())
}

/// Incremental frame decoder over a byte stream with resynchronisation.
///
/// Feed it chunks as they arrive ([`FrameReader::push`]) and drain decoded
/// messages ([`FrameReader::next_message`]); partial frames simply wait for
/// more bytes. Batch frames are delivered item by item through the same
/// `next_message` (the `ready` queue holds a decoded batch's remainder).
/// See the module docs for the corruption-handling rules.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    ready: std::collections::VecDeque<WireMessage>,
    resyncs: u64,
    oversized: u64,
}

impl FrameReader {
    /// An empty reader.
    #[must_use]
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends received bytes to the internal buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Times the stream lost framing and had to scan for the next magic.
    #[must_use]
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Frames rejected for an over-limit length prefix.
    #[must_use]
    pub fn oversized(&self) -> u64 {
        self.oversized
    }

    /// Bytes currently buffered (partial frame awaiting more input).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Decodes the next complete message, or `None` when the buffer holds no
    /// complete frame (garbage is scanned past; corrupt frames are skipped).
    /// The items of a batch frame come out one call at a time, in wire order.
    pub fn next_message(&mut self) -> Option<WireMessage> {
        loop {
            if let Some(message) = self.ready.pop_front() {
                return Some(message);
            }
            self.skip_to_magic();
            if self.buf.len() < HEADER_LEN {
                return None;
            }
            let len_bytes: [u8; 4] = self.buf[MAGIC.len()..HEADER_LEN]
                .try_into()
                .expect("slice is 4 bytes");
            let payload_len = u32::from_le_bytes(len_bytes) as usize;
            if payload_len > MAX_PAYLOAD {
                // Reject before buffering/allocating anything of that size:
                // drop the magic so the scan moves past this header.
                self.oversized += 1;
                self.buf.drain(..MAGIC.len());
                continue;
            }
            if self.buf.len() < HEADER_LEN + payload_len {
                return None; // partial frame: wait for more bytes
            }
            match decode_payload(
                &self.buf[HEADER_LEN..HEADER_LEN + payload_len],
                &mut self.ready,
            ) {
                Some(()) => {
                    self.buf.drain(..HEADER_LEN + payload_len);
                }
                None => {
                    // Corrupt payload (a batch is rejected whole): skip the
                    // magic and rescan from inside the frame (the payload may
                    // contain the next real magic).
                    self.resyncs += 1;
                    self.buf.drain(..MAGIC.len());
                }
            }
        }
    }

    /// Drops leading bytes up to the first magic occurrence (or down to a
    /// possible magic prefix at the tail), counting a resync when anything
    /// was dropped.
    fn skip_to_magic(&mut self) {
        let mut start = 0;
        while start < self.buf.len() {
            let window = &self.buf[start..];
            if window.len() >= MAGIC.len() {
                if window[..MAGIC.len()] == MAGIC {
                    break;
                }
            } else if MAGIC.starts_with(window) {
                break; // possible magic prefix: keep the tail, wait for more
            }
            start += 1;
        }
        if start > 0 {
            self.resyncs += 1;
            self.buf.drain(..start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(reader: &mut FrameReader) -> Vec<WireMessage> {
        let mut out = Vec::new();
        while let Some(m) = reader.next_message() {
            out.push(m);
        }
        out
    }

    #[test]
    fn request_frames_round_trip() {
        let requests = [
            WireRequest {
                request_id: 0,
                server: 0,
                epoch: 0,
                op: Operation::Read,
            },
            WireRequest {
                request_id: u64::MAX,
                server: u32::MAX as usize,
                epoch: u64::MAX,
                op: Operation::Write(Entry {
                    timestamp: u64::MAX,
                    value: 0x0123_4567_89ab_cdef,
                }),
            },
        ];
        let mut wire = Vec::new();
        for r in &requests {
            encode_request(r, &mut wire);
        }
        let mut reader = FrameReader::new();
        reader.push(&wire);
        let decoded = read_all(&mut reader);
        assert_eq!(
            decoded,
            requests.map(WireMessage::Request).to_vec(),
            "round trip"
        );
        assert_eq!(reader.resyncs(), 0);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn reply_frames_round_trip() {
        let replies = [
            Reply {
                server: 7,
                request_id: 42,
                entry: None,
                epoch: 3,
                stale: false,
            },
            Reply {
                server: 1023,
                request_id: 0xdead_beef,
                entry: Some(Entry {
                    timestamp: 9,
                    value: 81,
                }),
                epoch: u64::MAX,
                stale: false,
            },
            // A fenced reply: the epoch field carries the server's current
            // epoch, the entry tag is the stale marker.
            Reply {
                server: 5,
                request_id: 77,
                entry: None,
                epoch: 12,
                stale: true,
            },
        ];
        let mut wire = Vec::new();
        for r in &replies {
            encode_reply(r, &mut wire);
        }
        let mut reader = FrameReader::new();
        reader.push(&wire);
        assert_eq!(
            read_all(&mut reader),
            replies.map(WireMessage::Reply).to_vec()
        );
    }

    #[test]
    fn torn_frames_decode_byte_by_byte() {
        let reply = Reply {
            server: 3,
            request_id: 99,
            entry: Some(Entry {
                timestamp: 5,
                value: 55,
            }),
            epoch: 1,
            stale: false,
        };
        let mut wire = Vec::new();
        encode_reply(&reply, &mut wire);
        let mut reader = FrameReader::new();
        for &byte in &wire[..wire.len() - 1] {
            reader.push(&[byte]);
            assert_eq!(reader.next_message(), None, "frame is still incomplete");
        }
        reader.push(&wire[wire.len() - 1..]);
        assert_eq!(reader.next_message(), Some(WireMessage::Reply(reply)));
    }

    #[test]
    fn garbage_prefix_resynchronises() {
        let reply = Reply {
            server: 0,
            request_id: 1,
            entry: None,
            epoch: 0,
            stale: false,
        };
        let mut wire = b"noise noise".to_vec();
        encode_reply(&reply, &mut wire);
        let mut reader = FrameReader::new();
        reader.push(&wire);
        assert_eq!(reader.next_message(), Some(WireMessage::Reply(reply)));
        assert!(reader.resyncs() >= 1);
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&u32::MAX.to_le_bytes()); // a 4 GiB claim
        let good = Reply {
            server: 2,
            request_id: 7,
            entry: None,
            epoch: 0,
            stale: false,
        };
        encode_reply(&good, &mut wire);
        let mut reader = FrameReader::new();
        reader.push(&wire);
        assert_eq!(reader.next_message(), Some(WireMessage::Reply(good)));
        assert_eq!(reader.oversized(), 1);
        assert!(reader.buffered() < HEADER_LEN);
    }

    #[test]
    fn batch_frames_round_trip_in_order() {
        let requests: Vec<WireRequest> = (0..5)
            .map(|i| WireRequest {
                request_id: i,
                server: i as usize,
                epoch: i / 2,
                op: if i % 2 == 0 {
                    Operation::Read
                } else {
                    Operation::Write(Entry {
                        timestamp: i,
                        value: i * 10,
                    })
                },
            })
            .collect();
        let mut wire = Vec::new();
        encode_request_batch(&requests, &mut wire);
        // One batch frame: a single header for all five messages.
        assert_eq!(wire.len(), HEADER_LEN + 2 + 3 * 22 + 2 * 38);
        let mut reader = FrameReader::new();
        reader.push(&wire);
        let decoded = read_all(&mut reader);
        assert_eq!(
            decoded,
            requests
                .iter()
                .copied()
                .map(WireMessage::Request)
                .collect::<Vec<_>>()
        );
        assert_eq!(reader.resyncs(), 0);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn reply_batches_chunk_at_max_batch_and_single_chunks_fall_back() {
        // MAX_BATCH + 1 replies: one full batch frame plus one plain frame.
        let replies: Vec<Reply> = (0..=MAX_BATCH as u64)
            .map(|i| Reply {
                server: (i % 7) as usize,
                request_id: i,
                entry: (i % 3 == 0).then_some(Entry {
                    timestamp: i,
                    value: i + 1,
                }),
                epoch: i % 5,
                stale: i % 3 == 1,
            })
            .collect();
        let mut wire = Vec::new();
        encode_reply_batch(&replies, &mut wire);
        let mut reader = FrameReader::new();
        reader.push(&wire);
        let decoded = read_all(&mut reader);
        assert_eq!(
            decoded,
            replies
                .iter()
                .copied()
                .map(WireMessage::Reply)
                .collect::<Vec<_>>()
        );
        // A one-message "batch" is exactly the single-message encoding.
        let mut single_batch = Vec::new();
        encode_reply_batch(&replies[..1], &mut single_batch);
        let mut single = Vec::new();
        encode_reply(&replies[0], &mut single);
        assert_eq!(single_batch, single);
        // And encoding nothing emits nothing.
        let mut empty = Vec::new();
        encode_reply_batch(&[], &mut empty);
        encode_request_batch(&[], &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn batch_frames_survive_torn_delivery() {
        let requests: Vec<WireRequest> = (0..3)
            .map(|i| WireRequest {
                request_id: 100 + i,
                server: i as usize,
                epoch: 2,
                op: Operation::Read,
            })
            .collect();
        let mut wire = Vec::new();
        encode_request_batch(&requests, &mut wire);
        let mut reader = FrameReader::new();
        // Nothing decodes until the last byte of the batch arrives; then
        // everything does.
        for &byte in &wire[..wire.len() - 1] {
            reader.push(&[byte]);
            assert_eq!(reader.next_message(), None);
        }
        reader.push(&wire[wire.len() - 1..]);
        assert_eq!(read_all(&mut reader).len(), 3);
    }

    #[test]
    fn corrupt_batch_is_rejected_whole_and_the_stream_recovers() {
        let requests: Vec<WireRequest> = (0..3)
            .map(|i| WireRequest {
                request_id: i,
                server: 0,
                epoch: 0,
                op: Operation::Read,
            })
            .collect();
        let mut wire = Vec::new();
        encode_request_batch(&requests, &mut wire);
        // Corrupt the *second* item's kind byte: items 1 and 3 are intact,
        // but the frame must be discarded whole — no partial salvage.
        wire[HEADER_LEN + 2 + 22] = 0xee;
        let good = Reply {
            server: 1,
            request_id: 50,
            entry: None,
            epoch: 0,
            stale: false,
        };
        encode_reply(&good, &mut wire);
        let mut reader = FrameReader::new();
        reader.push(&wire);
        assert_eq!(read_all(&mut reader), vec![WireMessage::Reply(good)]);
        assert!(reader.resyncs() >= 1);
    }

    #[test]
    fn batch_with_a_lying_count_is_rejected() {
        for bad_count in [0u8, 3] {
            let mut wire = Vec::new();
            // A batch frame claiming `bad_count` items but carrying two.
            let items: Vec<WireRequest> = (0..2)
                .map(|i| WireRequest {
                    request_id: i,
                    server: 0,
                    epoch: 0,
                    op: Operation::Read,
                })
                .collect();
            frame_header(2 + 2 * 22, &mut wire);
            wire.push(KIND_BATCH);
            wire.push(bad_count);
            for item in &items {
                encode_request_item(item, &mut wire);
            }
            let good = Reply {
                server: 2,
                request_id: 9,
                entry: None,
                epoch: 0,
                stale: false,
            };
            encode_reply(&good, &mut wire);
            let mut reader = FrameReader::new();
            reader.push(&wire);
            assert_eq!(
                read_all(&mut reader),
                vec![WireMessage::Reply(good)],
                "count {bad_count} must reject the frame"
            );
            assert!(reader.resyncs() >= 1);
        }
    }

    #[test]
    fn stale_replies_round_trip_with_the_servers_epoch() {
        let fenced = Reply {
            server: 9,
            request_id: 4096,
            entry: None,
            epoch: 7, // the server's current epoch, not the request's
            stale: true,
        };
        let mut wire = Vec::new();
        encode_reply(&fenced, &mut wire);
        assert_eq!(
            wire.len(),
            HEADER_LEN + ITEM_SHORT,
            "fenced replies stay short"
        );
        let mut reader = FrameReader::new();
        reader.push(&wire);
        assert_eq!(reader.next_message(), Some(WireMessage::Reply(fenced)));
        assert_eq!(reader.resyncs(), 0);
    }

    #[test]
    fn the_stale_tag_on_a_request_is_rejected() {
        let request = WireRequest {
            request_id: 5,
            server: 1,
            epoch: 0,
            op: Operation::Read,
        };
        let mut wire = Vec::new();
        encode_request(&request, &mut wire);
        *wire.last_mut().unwrap() = ENTRY_STALE; // flip the op tag
        let good = Reply {
            server: 2,
            request_id: 6,
            entry: None,
            epoch: 0,
            stale: false,
        };
        encode_reply(&good, &mut wire);
        let mut reader = FrameReader::new();
        reader.push(&wire);
        assert_eq!(read_all(&mut reader), vec![WireMessage::Reply(good)]);
        assert!(reader.resyncs() >= 1);
    }

    #[test]
    fn corrupt_payload_is_skipped_and_the_stream_recovers() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&22u32.to_le_bytes());
        wire.extend_from_slice(&[0xff; 22]); // bad kind byte
        let good = Reply {
            server: 4,
            request_id: 11,
            entry: None,
            epoch: 0,
            stale: false,
        };
        encode_reply(&good, &mut wire);
        let mut reader = FrameReader::new();
        reader.push(&wire);
        assert_eq!(reader.next_message(), Some(WireMessage::Reply(good)));
        assert!(reader.resyncs() >= 1);
    }
}
