//! Property tests of the `mc-net` wire protocol: random frames round-trip
//! through encode/decode bit for bit, every truncation of a valid frame is
//! rejected (never mis-decoded, never panicking), corrupt headers are
//! rejected before any allocation, and random garbage never decodes into a
//! `Results`/`HelloAck` frame a client would trust.

use proptest::collection::vec;
use proptest::prelude::*;

use mc_net::protocol::{
    decode_classify_into, encode_candidates, encode_classify_packed, read_frame, record_flags,
    ErrorCode, Frame, NetError, ProtocolError, ResultEntry, MAX_FRAME_LEN,
};
use mc_seqio::SequenceRecord;

fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')],
        0..max_len,
    )
}

/// DNA with the full mess the packed encoding must carry byte-exactly:
/// upper/lower case, `N` runs, `U`, and stray garbage bytes (ACGT-biased
/// by repetition so most draws stay packable).
fn messy_dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    vec(
        prop_oneof![
            Just(b'A'),
            Just(b'C'),
            Just(b'G'),
            Just(b'T'),
            Just(b'A'),
            Just(b'C'),
            Just(b'G'),
            Just(b'T'),
            Just(b'N'),
            Just(b'N'),
            Just(b'a'),
            Just(b't'),
            Just(b'U'),
            Just(b'-'),
            Just(0xFFu8),
        ],
        0..max_len,
    )
}

/// Build a random `SequenceRecord` from primitive draws (optionally paired).
fn record_from(
    header_bytes: &[u8],
    sequence: Vec<u8>,
    quality: Vec<u8>,
    mate_sequence: Option<Vec<u8>>,
) -> SequenceRecord {
    // Headers are arbitrary UTF-8; map raw bytes into a printable subset.
    let header: String = header_bytes
        .iter()
        .map(|b| (b' ' + (b % 64)) as char)
        .collect();
    let mut record = SequenceRecord::with_quality(header, sequence, quality);
    if let Some(mate) = mate_sequence {
        record.mate = Some(Box::new(SequenceRecord::new("mate", mate)));
    }
    record
}

fn roundtrip(frame: &Frame) -> Frame {
    let bytes = frame.encode().expect("encodable frame");
    // The envelope is exactly [len][type][payload].
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    assert_eq!(len as usize, bytes.len() - 4);
    assert!((1..=MAX_FRAME_LEN).contains(&len));
    Frame::decode(bytes[4], &bytes[5..]).expect("decodable frame")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn classify_frames_roundtrip(
        request_id in any::<u64>(),
        headers in vec(vec(any::<u8>(), 0..12), 0..8),
        paired in any::<bool>(),
        seq_len in 0usize..200,
    ) {
        let reads: Vec<SequenceRecord> = headers
            .iter()
            .enumerate()
            .map(|(i, header)| {
                let mut rng_len = (seq_len + i * 7) % 200;
                if i % 3 == 0 {
                    rng_len = 0; // empty reads must survive the wire too
                }
                let sequence = vec![b"ACGT"[i % 4]; rng_len];
                let quality = if i % 2 == 0 { vec![b'I'; rng_len] } else { Vec::new() };
                let mate = (paired && i % 4 == 1).then(|| vec![b'T'; (i * 13) % 90]);
                record_from(header, sequence, quality, mate)
            })
            .collect();
        let frame = Frame::ClassifyPacked { request_id, reads: reads.clone() };
        prop_assert_eq!(roundtrip(&frame), frame);
        let frame = Frame::Candidates { request_id, reads };
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    /// The tentpole property: for any record set — `N` runs, lower case,
    /// garbage bytes, empty reads, mates, qualities — records that pack and
    /// records that fall back to verbatim bytes round-trip byte-exactly, in
    /// both request frames, whether decoded through `Frame::decode` or
    /// through the server's buffer-reusing `decode_classify_into`.
    #[test]
    fn packed_and_verbatim_roundtrip_bit_identically(
        request_id in any::<u64>(),
        sequences in vec(messy_dna(180), 0..8),
        with_quality in any::<bool>(),
        with_mates in any::<bool>(),
    ) {
        let reads: Vec<SequenceRecord> = sequences
            .iter()
            .enumerate()
            .map(|(i, seq)| {
                let quality = if with_quality && i % 2 == 0 {
                    vec![b'I'; seq.len()]
                } else {
                    Vec::new()
                };
                let mut record =
                    SequenceRecord::with_quality(format!("read {i}"), seq.clone(), quality);
                if with_mates && i % 3 == 1 {
                    let mate_seq: Vec<u8> = seq.iter().rev().copied().collect();
                    record.mate = Some(Box::new(SequenceRecord::new("mate", mate_seq)));
                }
                record
            })
            .collect();

        let packed = encode_classify_packed(request_id, &reads).unwrap();
        let candidates = encode_candidates(request_id, &reads).unwrap();

        for (bytes, expect_type) in [(&packed, 7u8), (&candidates, 11u8)] {
            prop_assert_eq!(bytes[4], expect_type);
            // Through the owned decoder …
            let (decoded_id, decoded) = match Frame::decode(bytes[4], &bytes[5..]).unwrap() {
                Frame::ClassifyPacked { request_id, reads }
                | Frame::Candidates { request_id, reads } => (request_id, reads),
                other => panic!("unexpected frame {other:?}"),
            };
            prop_assert_eq!(decoded_id, request_id);
            prop_assert_eq!(&decoded, &reads);
            // … and through the zero-copy decoder over a dirty buffer.
            let mut buffer = vec![
                SequenceRecord::with_quality("stale", vec![b'T'; 64], vec![b'#'; 64])
                    .with_mate(SequenceRecord::new("stale mate", vec![b'A'; 32]));
                3
            ];
            let got_id = decode_classify_into(bytes[4], &bytes[5..], &mut buffer).unwrap();
            prop_assert_eq!(got_id, request_id);
            prop_assert_eq!(&buffer, &reads);
        }
    }

    /// On ACGT-only payloads the packed frame shrinks towards 4× (bounded
    /// by headers and framing); it never grows beyond the verbatim frame
    /// (str16 header, u32-prefixed sequence and quality, mate flag per
    /// record) + one flag byte per record, whatever the input.
    #[test]
    fn packed_frames_never_inflate(
        sequences in vec(messy_dna(300), 1..6),
    ) {
        let reads: Vec<SequenceRecord> = sequences
            .iter()
            .enumerate()
            .map(|(i, seq)| SequenceRecord::new(format!("r{i}"), seq.clone()))
            .collect();
        let verbatim = 4 + 1 + 8 + 4
            + reads
                .iter()
                .map(|r| 2 + r.header.len() + 4 + r.sequence.len() + 4 + r.quality.len() + 1)
                .sum::<usize>();
        let packed = encode_classify_packed(1, &reads).unwrap();
        prop_assert!(packed.len() <= verbatim + reads.len());
    }

    /// A FASTQ record whose quality length differs from its sequence length
    /// must be rejected — for the read and for its mate, at encode time and
    /// on a hand-crafted wire frame.
    #[test]
    fn quality_length_mismatch_frames_are_rejected(
        seq in dna(60),
        qual_delta in 1usize..20,
        in_mate in any::<bool>(),
    ) {
        let quality = vec![b'I'; seq.len() + qual_delta];
        let bad = SequenceRecord::with_quality("bad", seq.clone(), quality.clone());
        let record = if in_mate {
            SequenceRecord::new("carrier", b"ACGT".to_vec()).with_mate(bad)
        } else {
            bad
        };
        let reads = vec![record];
        prop_assert!(encode_classify_packed(0, &reads).is_err());
        prop_assert!(encode_candidates(0, &reads).is_err());

        // Hand-craft the wire image the encoder refuses to produce: records
        // with verbatim bodies and an over-long quality. The decoder takes
        // exactly `seq_len` quality bytes, so the surplus lands where the
        // mate flag belongs and is rejected.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes()); // request id
        payload.extend_from_slice(&1u32.to_le_bytes()); // read count
        let put_record = |payload: &mut Vec<u8>, seq: &[u8], qual: &[u8], mate: bool| {
            payload.extend_from_slice(&1u16.to_le_bytes());
            payload.push(b'r');
            payload.extend_from_slice(&(seq.len() as u32).to_le_bytes());
            payload.push(if qual.is_empty() { 0 } else { record_flags::HAS_QUALITY });
            payload.extend_from_slice(seq);
            payload.extend_from_slice(qual);
            payload.push(u8::from(mate));
        };
        if in_mate {
            put_record(&mut payload, b"ACGT", b"", true);
        }
        put_record(&mut payload, &seq, &quality, false);
        prop_assert_eq!(
            Frame::decode(7, &payload),
            Err(ProtocolError::Malformed("mate flag"))
        );
    }

    #[test]
    fn results_frames_roundtrip(
        request_id in any::<u64>(),
        raw in vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..40),
        tag in any::<bool>(),
        tag_value in any::<u64>(),
    ) {
        let generation = tag.then_some(tag_value);
        let entries: Vec<ResultEntry> = raw
            .iter()
            .map(|&(status, taxon, hits)| ResultEntry {
                status: status & 0b111,
                taxon,
                rank: status.rotate_left(3),
                best_target: taxon ^ 0xABCD,
                best_hits: hits,
            })
            .collect();
        let frame = Frame::Results { request_id, entries, generation };
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn hello_and_error_frames_roundtrip(
        magic in any::<u32>(),
        version in any::<u16>(),
        batch in any::<u32>(),
        credit in any::<u32>(),
    ) {
        let hello = Frame::Hello {
            magic,
            version,
            batch_records: batch,
            max_in_flight: credit,
            auth_token: None,
        };
        prop_assert_eq!(roundtrip(&hello), hello);
        let ack = Frame::HelloAck {
            version,
            credits: credit,
            batch_records: batch,
            backend: format!("backend-{}", magic % 1000),
        };
        prop_assert_eq!(roundtrip(&ack), ack);
        let error = Frame::Error {
            code: ErrorCode::from_u16(version),
            message: format!("error {version}"),
        };
        prop_assert_eq!(roundtrip(&error), error);
        prop_assert_eq!(roundtrip(&Frame::Goodbye), Frame::Goodbye);
    }

    /// Every strict prefix of a valid frame is rejected by the stream
    /// reader: either a clean "no frame yet" at offset 0, a disconnect, or
    /// a protocol error — never a successfully decoded frame, never a
    /// panic.
    #[test]
    fn truncations_never_decode(
        sequence in messy_dna(120),
        cut_fraction in 0u32..1000,
        classify in any::<bool>(),
    ) {
        let reads = vec![
            SequenceRecord::new("a read", sequence.clone()),
            SequenceRecord::with_quality("q", sequence, b"".to_vec()),
        ];
        let bytes = if classify {
            Frame::ClassifyPacked { request_id: 7, reads }.encode().unwrap()
        } else {
            Frame::Candidates { request_id: 7, reads }.encode().unwrap()
        };
        let cut = (cut_fraction as usize * (bytes.len() - 1)) / 1000;
        let mut cursor = std::io::Cursor::new(&bytes[..cut]);
        match read_frame(&mut cursor) {
            // The clean-EOF boundary is exactly 0 bytes: a partial length
            // prefix reads as a disconnect (regression for the
            // `read_exact`-maps-everything-to-EOF bug).
            Ok(None) => prop_assert!(cut == 0, "EOF-at-boundary only with 0 bytes, not {cut}"),
            Ok(Some(_)) => prop_assert!(false, "decoded a truncated frame ({cut} bytes)"),
            Err(NetError::Disconnected) | Err(NetError::Protocol(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Corrupting the length header never panics and never silently
    /// succeeds with a different payload length than announced.
    #[test]
    fn corrupt_headers_are_rejected(len_word in any::<u32>()) {
        let valid = Frame::Goodbye.encode().unwrap();
        let mut corrupted = valid.clone();
        corrupted[0..4].copy_from_slice(&len_word.to_le_bytes());
        let mut cursor = std::io::Cursor::new(corrupted);
        match read_frame(&mut cursor) {
            // Only the true length may decode the original frame.
            Ok(Some(frame)) => {
                prop_assert_eq!(len_word, 1);
                prop_assert_eq!(frame, Frame::Goodbye);
            }
            Ok(None) => prop_assert!(false, "corrupt header read as clean EOF"),
            Err(NetError::Protocol(ProtocolError::FrameTooLarge(l))) => {
                prop_assert!(l == 0 || l > MAX_FRAME_LEN);
            }
            Err(NetError::Disconnected) => prop_assert!(len_word > 1),
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Random garbage payloads never decode into a frame (for any type tag)
    /// without an explicit error — i.e. the decoder never panics and
    /// trailing bytes are always rejected.
    #[test]
    fn random_payloads_never_panic(
        frame_type in any::<u8>(),
        payload in vec(any::<u8>(), 0..300),
    ) {
        // Either a clean decode (possible: some garbage is a valid frame)
        // or a typed error; the property is "no panic, no partial reads".
        if let Ok(frame) = Frame::decode(frame_type, &payload) {
            // Whatever decoded must re-encode to an equivalent frame.
            let reencoded = frame.encode().unwrap();
            prop_assert_eq!(Frame::decode(reencoded[4], &reencoded[5..]).unwrap(), frame);
        }
    }
}
