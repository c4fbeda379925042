//! Wire-protocol suite for `mcd-grid-wire/2`.
//!
//! Two layers of guarantees: every frame the protocol defines round-trips
//! through encode→decode byte-exactly (exemplar and property-based), and
//! every way a frame can arrive damaged — truncated at any byte, torn
//! length prefix, unknown tag, tag/payload disagreement, garbage payload —
//! is rejected with a structured error, never a panic and never a
//! silently wrong frame. Mirrors the torn-write style of `tests/chaos.rs`.

use std::io::Cursor;
use std::time::Duration;

use mcd::grid::wire::{
    decode, encode, hello, read_frame, write_frame, Frame, WireError, WireOutcome,
    WorkerFingerprint, MAX_FRAME_BYTES, WIRE_PROTOCOL,
};
use mcd::harness::{CellOutcome, CellSpec};
use mcd::time::DvfsModel;

use proptest::prelude::*;
use serde_json::{Map, Value};

fn sample_cell(seed: u64) -> CellSpec {
    CellSpec {
        benchmark: "adpcm".into(),
        seed,
        instructions: 800,
        model: DvfsModel::XScale,
        thetas: [0.01, 0.05],
        policies: Vec::new(),
    }
}

/// Frames lack `PartialEq` (results carry float-heavy payloads), so
/// equality is judged where it matters: on the wire bytes.
fn assert_round_trip(frame: &Frame) {
    let bytes = encode(frame);
    let (decoded, consumed) = decode(&bytes).expect("well-formed frame decodes");
    assert_eq!(consumed, bytes.len(), "whole frame consumed");
    assert_eq!(
        encode(&decoded),
        bytes,
        "decode→encode reproduces the wire bytes for {}",
        frame.name()
    );
}

#[test]
fn every_frame_variant_round_trips() {
    let cell = sample_cell(3);
    let result = cell.run();
    let frames = vec![
        hello("worker-a", "abc123"),
        Frame::Hello {
            protocol: WIRE_PROTOCOL.to_string(),
            worker: String::new(),
            spec_digest: String::new(),
            fingerprint: WorkerFingerprint::current(""),
        },
        Frame::Welcome {
            worker_id: 7,
            spec_digest: "abc123".into(),
            cells: 42,
            heartbeat_us: 250_000,
        },
        Frame::Reject {
            reason: "protocol mismatch".into(),
        },
        Frame::Assign {
            cell: 11,
            spec: cell.clone(),
        },
        Frame::CellResult {
            cell: 11,
            outcome: WireOutcome::Computed {
                result,
                attempts: 2,
            },
        },
        Frame::CellResult {
            cell: 12,
            outcome: WireOutcome::Failed {
                attempts: 3,
                message: "panicked: \"quoted\" and \\escaped\\".into(),
                deterministic: true,
            },
        },
        Frame::CellResult {
            cell: 13,
            outcome: WireOutcome::Stalled { waited_us: 123_456 },
        },
        Frame::Heartbeat,
        Frame::TelemetryEvent {
            event: serde_json::from_str(r#"{"event":"cell_started","cell":4}"#).unwrap(),
        },
        Frame::Drain,
        Frame::Shutdown,
    ];
    for frame in &frames {
        assert_round_trip(frame);
    }
}

/// A raw frame as an older peer would have written it: length prefix, tag
/// byte, compact JSON payload — with the newer keys absent.
fn raw_frame(tag: u8, payload: &str) -> Vec<u8> {
    let len = 1 + payload.len();
    let mut buf = ((len) as u32).to_be_bytes().to_vec();
    buf.push(tag);
    buf.extend_from_slice(payload.as_bytes());
    buf
}

#[test]
fn assign_without_a_policies_key_decodes_to_a_policy_free_cell() {
    // An Assign as written before the online-policy axis existed: the cell
    // spec has no `policies` key at all.
    let payload = r#"{"Assign":{"cell":11,"spec":{"benchmark":"adpcm","instructions":800,"model":"XScale","seed":3,"thetas":[0.01,0.05]}}}"#;
    let (frame, _) = decode(&raw_frame(4, payload)).expect("pre-policy Assign decodes");
    let Frame::Assign { cell, spec } = frame else {
        panic!("decoded to a different frame");
    };
    assert_eq!(cell, 11);
    assert_eq!(spec, sample_cell(3));
    assert!(
        spec.policies.is_empty(),
        "a pre-policy Assign never carried policies"
    );
}

#[test]
fn policy_free_assigns_keep_their_pre_policy_wire_bytes() {
    let bytes = encode(&Frame::Assign {
        cell: 11,
        spec: sample_cell(3),
    });
    let text = String::from_utf8_lossy(&bytes);
    assert!(
        !text.contains("policies"),
        "a policy-free Assign must serialize exactly as before the axis existed"
    );

    // Governed assigns carry the axis and round-trip byte-exactly.
    let mut governed = sample_cell(3);
    governed.policies = vec!["attack-decay".into(), "queue-pi:kp=0.7".into()];
    let frame = Frame::Assign {
        cell: 12,
        spec: governed.clone(),
    };
    assert_round_trip(&frame);
    let (decoded, _) = decode(&encode(&frame)).expect("governed Assign decodes");
    let Frame::Assign { spec, .. } = decoded else {
        panic!("decoded to a different frame");
    };
    assert_eq!(spec, governed);
}

#[test]
fn hello_carries_the_current_build_fingerprint() {
    let Frame::Hello {
        protocol,
        fingerprint: fp,
        ..
    } = hello("w", "digest-1")
    else {
        panic!("hello() builds a Hello");
    };
    assert_eq!(protocol, WIRE_PROTOCOL);
    assert_eq!(fp.spec_digest, "digest-1");
    assert!(!fp.version.is_empty());
    assert!(fp.target.contains('-'), "target is arch-os");
    assert!(fp.summary().contains(&fp.version));
}

#[test]
fn computed_results_survive_the_wire_byte_exactly() {
    let cell = sample_cell(9);
    let reference = serde_json::to_string(&cell.run()).unwrap();
    let frame = Frame::CellResult {
        cell: 0,
        outcome: WireOutcome::Computed {
            result: cell.run(),
            attempts: 1,
        },
    };
    let (decoded, _) = decode(&encode(&frame)).unwrap();
    let Frame::CellResult {
        outcome: WireOutcome::Computed { result, .. },
        ..
    } = decoded
    else {
        panic!("decoded to a different frame");
    };
    assert_eq!(
        serde_json::to_string(&result).unwrap(),
        reference,
        "simulator results cross the wire without any byte drift"
    );
}

#[test]
fn wire_outcome_mirrors_cell_outcomes() {
    let stalled = CellOutcome::Stalled {
        waited: Duration::from_micros(777),
    };
    let wire = WireOutcome::from_outcome(&stalled).expect("stalls cross the wire");
    assert!(matches!(
        wire.into_outcome(),
        CellOutcome::Stalled { waited } if waited == Duration::from_micros(777)
    ));
    let cached = CellOutcome::Cached(sample_cell(1).run());
    assert!(
        WireOutcome::from_outcome(&cached).is_none(),
        "workers have no cache, so Cached never crosses the wire"
    );
    assert!(WireOutcome::from_outcome(&CellOutcome::Skipped).is_none());
}

#[test]
fn every_prefix_truncation_is_rejected_not_misread() {
    let frame = Frame::Assign {
        cell: 5,
        spec: sample_cell(5),
    };
    let bytes = encode(&frame);
    for cut in 0..bytes.len() {
        match decode(&bytes[..cut]) {
            Err(WireError::Truncated) => {}
            other => panic!("prefix of {cut} bytes must be Truncated, got {other:?}"),
        }
    }
}

#[test]
fn oversize_length_prefix_is_rejected_before_allocation() {
    let mut bytes = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
    bytes.push(6);
    assert!(matches!(decode(&bytes), Err(WireError::Oversize(_))));
    assert!(matches!(
        read_frame(&mut Cursor::new(bytes)),
        Err(WireError::Oversize(_))
    ));
}

#[test]
fn zero_length_frame_is_rejected() {
    let bytes = 0u32.to_be_bytes().to_vec();
    assert!(matches!(decode(&bytes), Err(WireError::BadPayload(_))));
}

#[test]
fn unknown_tag_is_rejected() {
    let mut bytes = encode(&Frame::Heartbeat);
    bytes[4] = 200;
    assert!(matches!(decode(&bytes), Err(WireError::UnknownTag(200))));
}

#[test]
fn tag_payload_disagreement_is_rejected() {
    // A Heartbeat payload wearing the Drain tag: both frames are valid on
    // their own, so only the tag cross-check can catch the swap.
    let mut bytes = encode(&Frame::Heartbeat);
    bytes[4] = Frame::Drain.tag();
    match decode(&bytes) {
        Err(WireError::TagMismatch { tag, decoded }) => {
            assert_eq!(tag, Frame::Drain.tag());
            assert_eq!(decoded, "Heartbeat");
        }
        other => panic!("expected TagMismatch, got {other:?}"),
    }
}

#[test]
fn garbage_payload_is_rejected() {
    let payload = b"not json at all";
    let mut bytes = ((1 + payload.len()) as u32).to_be_bytes().to_vec();
    bytes.push(6);
    bytes.extend_from_slice(payload);
    assert!(matches!(decode(&bytes), Err(WireError::BadPayload(_))));
}

#[test]
fn concatenated_frames_decode_in_sequence() {
    let frames = vec![
        hello("w", ""),
        Frame::Heartbeat,
        Frame::Assign {
            cell: 1,
            spec: sample_cell(1),
        },
        Frame::Shutdown,
    ];
    let mut stream = Vec::new();
    for f in &frames {
        stream.extend_from_slice(&encode(f));
    }
    let mut offset = 0;
    for f in &frames {
        let (decoded, consumed) = decode(&stream[offset..]).expect("next frame decodes");
        assert_eq!(encode(&decoded), encode(f));
        offset += consumed;
    }
    assert_eq!(offset, stream.len(), "nothing left over");
}

#[test]
fn read_frame_distinguishes_clean_eof_from_torn_stream() {
    assert!(matches!(
        read_frame(&mut Cursor::new(Vec::new())),
        Err(WireError::Eof)
    ));
    let bytes = encode(&Frame::Heartbeat);
    for cut in 1..bytes.len() {
        match read_frame(&mut Cursor::new(bytes[..cut].to_vec())) {
            Err(WireError::Truncated) => {}
            other => panic!("torn stream at {cut} bytes must be Truncated, got {other:?}"),
        }
    }
}

#[test]
fn write_and_read_frame_report_matching_byte_counts() {
    let frame = Frame::Welcome {
        worker_id: 1,
        spec_digest: "d".into(),
        cells: 9,
        heartbeat_us: 1_000_000,
    };
    let mut wire = Vec::new();
    let written = write_frame(&mut wire, &frame).unwrap();
    assert_eq!(written as usize, wire.len());
    assert_eq!(written as usize, encode(&frame).len());
    let (_, read) = read_frame(&mut Cursor::new(wire)).unwrap();
    assert_eq!(read, written, "wire accounting agrees on both ends");
}

/// Lossy-UTF-8 text from arbitrary bytes (the proptest shim has no
/// string strategy).
fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Handshake frames round-trip whatever names and digests workers
    /// send, including embedded quotes, backslashes, and control bytes.
    #[test]
    fn hello_round_trips_arbitrary_strings(
        worker in proptest::collection::vec(any::<u8>(), 0..48),
        digest in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        assert_round_trip(&hello(&text(&worker), &text(&digest)));
    }

    #[test]
    fn welcome_and_assign_round_trip_arbitrary_numbers(
        worker_id in any::<u64>(),
        cells in any::<u64>(),
        cell in any::<u64>(),
        seed in any::<u64>(),
        instructions in 1u64..100_000,
    ) {
        assert_round_trip(&Frame::Welcome {
            worker_id,
            spec_digest: "d".into(),
            cells,
            heartbeat_us: worker_id,
        });
        assert_round_trip(&Frame::Assign {
            cell,
            spec: CellSpec { seed, instructions, ..sample_cell(0) },
        });
    }

    #[test]
    fn failure_and_stall_results_round_trip(
        cell in any::<u64>(),
        attempts in any::<u32>(),
        message in proptest::collection::vec(any::<u8>(), 0..96),
        deterministic in any::<bool>(),
        waited_us in any::<u64>(),
    ) {
        assert_round_trip(&Frame::CellResult {
            cell,
            outcome: WireOutcome::Failed {
                attempts,
                message: text(&message),
                deterministic,
            },
        });
        assert_round_trip(&Frame::CellResult {
            cell,
            outcome: WireOutcome::Stalled { waited_us },
        });
    }

    /// Telemetry events are free-form JSON objects; arbitrary keys and
    /// values must survive forwarding intact.
    #[test]
    fn telemetry_events_round_trip_arbitrary_objects(
        key in proptest::collection::vec(any::<u8>(), 1..24),
        val in proptest::collection::vec(any::<u8>(), 0..48),
        num in any::<u64>(),
    ) {
        let mut obj = Map::new();
        obj.insert(text(&key), Value::String(text(&val)));
        obj.insert("t_us".to_string(), Value::Number(serde_json::Number::U64(num)));
        assert_round_trip(&Frame::TelemetryEvent { event: Value::Object(obj) });
    }

    /// Arbitrary garbage never panics the decoder: it either decodes (if
    /// it happens to be a valid frame) or returns a structured error.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let _ = decode(&bytes);
        let _ = read_frame(&mut Cursor::new(bytes));
    }
}
