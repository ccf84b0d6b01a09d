//! Property tests for the wire codec (satellite of the socket-transport PR):
//! random-message round-trips, torn-frame re-synchronisation under random
//! chunking and garbage injection, and oversized-frame rejection.

use bqs_net::codec::{
    encode_reply, encode_reply_batch, encode_request, encode_request_batch, FrameReader,
    WireMessage, WireRequest, HEADER_LEN, MAGIC, MAX_PAYLOAD,
};
use bqs_service::transport::{Operation, Reply};
use bqs_sim::server::Entry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic pseudo-random message batch derived from one seed.
fn random_messages(seed: u64, count: usize) -> Vec<WireMessage> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let request_id: u64 = rng.gen();
            let server = rng.gen_range_u64(0, u64::from(u32::MAX)) as usize;
            let epoch: u64 = rng.gen();
            let entry = Entry {
                timestamp: rng.gen(),
                value: rng.gen(),
            };
            match rng.gen_range_u64(0, 5) {
                0 => WireMessage::Request(WireRequest {
                    request_id,
                    server,
                    epoch,
                    op: Operation::Read,
                }),
                1 => WireMessage::Request(WireRequest {
                    request_id,
                    server,
                    epoch,
                    op: Operation::Write(entry),
                }),
                2 => WireMessage::Reply(Reply {
                    server,
                    request_id,
                    entry: None,
                    epoch,
                    stale: false,
                }),
                3 => WireMessage::Reply(Reply {
                    server,
                    request_id,
                    entry: Some(entry),
                    epoch,
                    stale: false,
                }),
                // The fenced frame: stale flag set, no entry, the epoch is
                // the server's current one.
                _ => WireMessage::Reply(Reply {
                    server,
                    request_id,
                    entry: None,
                    epoch,
                    stale: true,
                }),
            }
        })
        .collect()
}

fn encode_all(messages: &[WireMessage]) -> Vec<u8> {
    let mut wire = Vec::new();
    for message in messages {
        match message {
            WireMessage::Request(request) => encode_request(request, &mut wire),
            WireMessage::Reply(reply) => encode_reply(reply, &mut wire),
        }
    }
    wire
}

/// Encodes the same message sequence through the batch encoders: maximal
/// same-kind runs become `WireBatch` frames (chunked at `MAX_BATCH` inside
/// the encoders), preserving order across run boundaries.
fn encode_all_batched(messages: &[WireMessage]) -> Vec<u8> {
    let mut wire = Vec::new();
    let mut requests: Vec<WireRequest> = Vec::new();
    let mut replies: Vec<Reply> = Vec::new();
    for message in messages {
        match message {
            WireMessage::Request(request) => {
                if !replies.is_empty() {
                    encode_reply_batch(&replies, &mut wire);
                    replies.clear();
                }
                requests.push(*request);
            }
            WireMessage::Reply(reply) => {
                if !requests.is_empty() {
                    encode_request_batch(&requests, &mut wire);
                    requests.clear();
                }
                replies.push(*reply);
            }
        }
    }
    encode_request_batch(&requests, &mut wire);
    encode_reply_batch(&replies, &mut wire);
    wire
}

fn decode_all(reader: &mut FrameReader) -> Vec<WireMessage> {
    let mut out = Vec::new();
    while let Some(message) = reader.next_message() {
        out.push(message);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever goes in comes back out, frame for frame.
    #[test]
    fn round_trip_random_messages(seed in 0u64..1_000_000, count in 1usize..40) {
        let messages = random_messages(seed, count);
        let mut reader = FrameReader::new();
        reader.push(&encode_all(&messages));
        prop_assert_eq!(decode_all(&mut reader), messages);
        prop_assert_eq!(reader.resyncs(), 0);
        prop_assert_eq!(reader.buffered(), 0);
    }

    /// Message boundaries never matter: any chunking of the byte stream
    /// (including 1-byte dribbles) decodes to the same frames in order.
    #[test]
    fn round_trip_survives_arbitrary_chunking(
        seed in 0u64..1_000_000,
        count in 1usize..16,
        chunk in 1usize..64,
    ) {
        let messages = random_messages(seed, count);
        let wire = encode_all(&messages);
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            reader.push(piece);
            decoded.extend(decode_all(&mut reader));
        }
        prop_assert_eq!(decoded, messages);
    }

    /// A torn/corrupt prefix costs the frames it overlaps, never the stream:
    /// after random garbage, the next intact frame decodes.
    #[test]
    fn resynchronises_after_garbage(
        seed in 0u64..1_000_000,
        garbage_len in 1usize..48,
        count in 1usize..8,
    ) {
        let messages = random_messages(seed, count);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        // Garbage that never contains a full magic: flip one magic byte.
        let garbage: Vec<u8> = (0..garbage_len)
            .map(|_| {
                let b = rng.gen::<u64>() as u8;
                if b == MAGIC[0] { b ^ 0x80 } else { b }
            })
            .collect();
        let mut wire = garbage;
        wire.extend_from_slice(&encode_all(&messages));
        let mut reader = FrameReader::new();
        reader.push(&wire);
        prop_assert_eq!(decode_all(&mut reader), messages);
        prop_assert!(reader.resyncs() >= 1);
    }

    /// A length prefix above the cap is rejected without buffering the
    /// claimed payload, and decoding resumes at the next intact frame.
    #[test]
    fn oversized_frames_are_rejected(
        seed in 0u64..1_000_000,
        excess in 1u64..1_000_000_000,
        count in 1usize..8,
    ) {
        let messages = random_messages(seed, count);
        let claimed = (MAX_PAYLOAD as u64 + excess).min(u64::from(u32::MAX)) as u32;
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&claimed.to_le_bytes());
        wire.extend_from_slice(&encode_all(&messages));
        let mut reader = FrameReader::new();
        reader.push(&wire);
        prop_assert_eq!(decode_all(&mut reader), messages);
        prop_assert!(reader.oversized() >= 1);
        prop_assert!(reader.buffered() < HEADER_LEN + MAX_PAYLOAD);
    }

    /// Batched encoding is transparent: the same message sequence, pushed
    /// through the batch encoders, decodes to the identical frame stream —
    /// and never costs more bytes than one frame per message.
    #[test]
    fn batched_round_trip_matches_unbatched(seed in 0u64..1_000_000, count in 1usize..200) {
        let messages = random_messages(seed, count);
        let batched = encode_all_batched(&messages);
        prop_assert!(batched.len() <= encode_all(&messages).len());
        let mut reader = FrameReader::new();
        reader.push(&batched);
        prop_assert_eq!(decode_all(&mut reader), messages);
        prop_assert_eq!(reader.resyncs(), 0);
        prop_assert_eq!(reader.buffered(), 0);
    }

    /// Batch frame boundaries never matter either: any chunking of the
    /// batched byte stream (1-byte dribbles included) decodes to the same
    /// messages in order.
    #[test]
    fn batched_round_trip_survives_arbitrary_chunking(
        seed in 0u64..1_000_000,
        count in 1usize..80,
        chunk in 1usize..64,
    ) {
        let messages = random_messages(seed, count);
        let wire = encode_all_batched(&messages);
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            reader.push(piece);
            decoded.extend(decode_all(&mut reader));
        }
        prop_assert_eq!(decoded, messages);
    }

    /// The resync contract holds for batch frames: after random garbage, the
    /// next intact batch decodes in full.
    #[test]
    fn batched_stream_resynchronises_after_garbage(
        seed in 0u64..1_000_000,
        garbage_len in 1usize..48,
        count in 1usize..40,
    ) {
        let messages = random_messages(seed, count);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let garbage: Vec<u8> = (0..garbage_len)
            .map(|_| {
                let b = rng.gen::<u64>() as u8;
                if b == MAGIC[0] { b ^ 0x80 } else { b }
            })
            .collect();
        let mut wire = garbage;
        wire.extend_from_slice(&encode_all_batched(&messages));
        let mut reader = FrameReader::new();
        reader.push(&wire);
        prop_assert_eq!(decode_all(&mut reader), messages);
        prop_assert!(reader.resyncs() >= 1);
    }

    /// A batch whose count byte is corrupted — any flip, any batch size — is
    /// rejected *whole* (one resync, no partial salvage, no fabrication) and
    /// the next intact frames decode untouched.
    #[test]
    fn corrupt_batch_count_rejects_the_whole_batch(
        seed in 0u64..1_000_000,
        count in 2usize..65,
        flip in 1u32..256,
    ) {
        let flip = flip as u8;
        // All requests, 2..=MAX_BATCH of them: exactly one batch frame.
        let mut rng = StdRng::seed_from_u64(seed);
        let requests: Vec<WireRequest> = (0..count)
            .map(|_| WireRequest {
                request_id: rng.gen(),
                server: rng.gen_range_u64(0, u64::from(u32::MAX)) as usize,
                epoch: rng.gen(),
                op: if rng.gen_range_u64(0, 2) == 0 {
                    Operation::Read
                } else {
                    Operation::Write(Entry { timestamp: rng.gen(), value: rng.gen() })
                },
            })
            .collect();
        let mut wire = Vec::new();
        encode_request_batch(&requests, &mut wire);
        prop_assert_eq!(wire[HEADER_LEN + 1] as usize, count, "count byte location");
        let tail = random_messages(seed ^ 1, 3);
        wire.extend_from_slice(&encode_all_batched(&tail));
        // Any corruption of the count makes the item bytes inconsistent with
        // the claimed count, so the whole batch must be rejected.
        wire[HEADER_LEN + 1] ^= flip;
        let mut reader = FrameReader::new();
        reader.push(&wire);
        prop_assert_eq!(decode_all(&mut reader), tail);
        prop_assert!(reader.resyncs() >= 1);
    }

    /// Pure noise never panics the reader and never fabricates a frame
    /// stream longer than the noise could encode.
    #[test]
    fn random_noise_never_panics(seed in 0u64..1_000_000, len in 0usize..512) {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise: Vec<u8> = (0..len).map(|_| rng.gen::<u64>() as u8).collect();
        let mut reader = FrameReader::new();
        reader.push(&noise);
        let decoded = decode_all(&mut reader);
        // Every fabricated frame consumes at least a header's worth of noise.
        prop_assert!(decoded.len() <= len / HEADER_LEN + 1);
    }
}
