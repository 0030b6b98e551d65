//! Property tests on the dist wire protocol: every message survives a
//! frame round-trip byte-exactly, and no torn, truncated, or
//! bit-corrupted frame ever panics the decoder — the failure mode is
//! always a typed [`FrameError`], because a chaos plan (or a killed
//! worker) tears frames at arbitrary byte positions.

use em_dist::proto::{self, FrameError, Msg, Side};
use proptest::prelude::*;

/// Deterministic pseudo-random bytes (splitmix64 stream).
fn bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e9b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// A message (and, for the three bulk kinds, a body) whose size and
/// content vary with the inputs — cycles through every variant that
/// carries variable-length data.
fn arbitrary_msg(pick: u8, seed: u64, n: usize) -> (Msg, Vec<u8>) {
    match pick % 6 {
        0 => (
            Msg::Halo {
                block: seed as u32,
                side: if seed & 1 == 0 {
                    Side::Bottom
                } else {
                    Side::Top
                },
                planes: (seed >> 40) as u32,
            },
            bytes(seed, n),
        ),
        1 => (
            Msg::PeriodDone {
                period: (seed % 1000) as u32,
                exchanges: seed,
                wait_secs: (0..n % 64).map(|i| (i as f64) * 1e-4).collect(),
                compute_s: seed as f64 * 1e-9,
                exchange_s: n as f64 * 1e-6,
                reduce_s: 0.25,
            },
            bytes(seed ^ 2, n),
        ),
        2 => (
            Msg::Assign {
                index: pick as u32,
                workers: (pick as u32) + 1,
                z0: (seed % 512) as u32,
                nz_local: (seed % 64) as u32 + 1,
                halo: (pick as u32 % 8) + 1,
                job_index: (seed % 16) as u32,
                deadline_ms: seed % 100_000,
                spec_toml: String::from_utf8_lossy(&bytes(seed ^ 3, n)).into_owned(),
            },
            Vec::new(),
        ),
        // A worker's answer to `Gather`: no header, all body.
        3 => (Msg::Gather, bytes(seed ^ 4, n)),
        4 => (
            Msg::Abort {
                reason: format!("reason-{seed}-{}", "x".repeat(n % 200)),
            },
            Vec::new(),
        ),
        _ => (
            Msg::WorkerErr {
                index: pick as u32,
                message: format!("err-{seed}"),
            },
            Vec::new(),
        ),
    }
}

/// The wire bytes of `msg` followed by `body`, built the way senders do.
fn framed(msg: &Msg, body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    proto::begin_frame(&mut frame, msg);
    frame.extend_from_slice(body);
    proto::seal_frame(&mut frame);
    frame
}

/// Read and decode one frame the way receivers do.
fn unframed(r: &mut &[u8]) -> Result<(Msg, Vec<u8>), FrameError> {
    let (kind, payload) = proto::read_frame(r)?;
    let (msg, body) = Msg::decode(kind, &payload).map_err(FrameError::Corrupt)?;
    Ok((msg, body.to_vec()))
}

/// The merged halo message: `planes` boundary planes of one `side` in
/// one frame, header and rows both intact after the trip.
#[test]
fn the_halo_block_message_roundtrips_with_its_body() {
    for (block, side, planes) in [
        (0, Side::Top, 1),
        (17, Side::Bottom, 6),
        (u32::MAX, Side::Top, 48),
    ] {
        let msg = Msg::Halo {
            block,
            side,
            planes,
        };
        let body = bytes(block as u64, 12 * 5 * 4 * 16 * planes as usize);
        let frame = framed(&msg, &body);
        assert_eq!(
            frame.len(),
            proto::FRAME_OVERHEAD + 9 + body.len(),
            "a 9-byte header in front of the rows"
        );
        let mut r = frame.as_slice();
        assert_eq!(unframed(&mut r).unwrap(), (msg, body));
        assert!(r.is_empty());
    }
    // A side byte that names neither face is a decode error.
    let mut payload = Vec::new();
    Msg::Halo {
        block: 1,
        side: Side::Top,
        planes: 1,
    }
    .encode(&mut payload);
    payload[4] = 2;
    assert!(Msg::decode(6, &payload).is_err());
}

/// Exhaustive over one 4 KiB frame of each bulk kind that moves field
/// rows: every single-bit flip and every truncation is rejected. The
/// checksum is not cryptographic; this is the guarantee it is there for.
#[test]
fn every_bit_flip_and_every_truncation_of_a_4k_frame_is_rejected() {
    let halo = Msg::Halo {
        block: 3,
        side: Side::Bottom,
        planes: 2,
    };
    for (msg, header) in [(halo, 9), (Msg::Gather, 0)] {
        let frame = framed(&msg, &bytes(99, 4096 - proto::FRAME_OVERHEAD - header));
        assert_eq!(frame.len(), 4096);
        assert!(unframed(&mut frame.as_slice()).is_ok());
        let mut flipped = frame.clone();
        for bit in 0..frame.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                unframed(&mut flipped.as_slice()).is_err(),
                "{msg:?}: flipping bit {} of byte {} went undetected",
                bit % 8,
                bit / 8
            );
            flipped[bit / 8] = frame[bit / 8];
        }
        for cut in 0..frame.len() {
            match unframed(&mut &frame[..cut]) {
                Err(FrameError::Eof) => assert_eq!(cut, 0, "clean EOF only at zero bytes"),
                Err(FrameError::Torn(_)) => {}
                other => panic!("{msg:?} cut at {cut}: {other:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode → frame → read_frame → decode is the identity, for every
    /// variable-length message shape and payload size.
    #[test]
    fn framed_messages_roundtrip(
        pick in 0u8..=255,
        seed in 0u64..u64::MAX,
        n in 0usize..4096,
    ) {
        let (msg, body) = arbitrary_msg(pick, seed, n);
        let frame = framed(&msg, &body);
        let mut r = frame.as_slice();
        let back = unframed(&mut r).expect("well-formed frame must parse");
        prop_assert_eq!(back, (msg, body));
        prop_assert!(r.is_empty(), "the reader must consume the frame exactly");
    }

    /// A frame cut at any byte boundary is rejected as a torn frame
    /// (or a clean EOF at cut 0) — never a panic, never a partial
    /// message.
    #[test]
    fn truncated_frames_are_rejected(
        pick in 0u8..=255,
        seed in 0u64..u64::MAX,
        n in 0usize..1024,
        cut_frac in 0.0f64..1.0,
    ) {
        let (msg, body) = arbitrary_msg(pick, seed, n);
        let frame = framed(&msg, &body);
        let cut = ((frame.len() - 1) as f64 * cut_frac) as usize;
        match unframed(&mut &frame[..cut]) {
            Err(FrameError::Eof) => prop_assert_eq!(cut, 0, "clean EOF only at zero bytes"),
            Err(FrameError::Torn(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error class for a cut: {e}"),
            Ok(_) => prop_assert!(false, "a truncated frame must not parse"),
        }
    }

    /// Flipping any single bit anywhere in a frame makes it
    /// undecodable: the checksum (or the length/shape validation)
    /// catches it, and the decoder returns an error instead of
    /// panicking or yielding a wrong message.
    #[test]
    fn bit_corruption_is_always_detected(
        pick in 0u8..=255,
        seed in 0u64..u64::MAX,
        n in 0usize..1024,
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (msg, body) = arbitrary_msg(pick, seed, n);
        let mut frame = framed(&msg, &body);
        let pos = ((frame.len() - 1) as f64 * flip_frac) as usize;
        frame[pos] ^= 1 << bit;
        prop_assert!(
            unframed(&mut frame.as_slice()).is_err(),
            "a flipped bit at byte {pos} went undetected"
        );
    }

    /// Random garbage never panics the message decoder, whatever kind
    /// byte it claims to be.
    #[test]
    fn garbage_payloads_never_panic_decode(
        kind in 0u8..=255,
        seed in 0u64..u64::MAX,
        n in 0usize..512,
    ) {
        let _ = Msg::decode(kind, &bytes(seed, n));
    }

    /// Random garbage on the stream never panics the frame reader.
    #[test]
    fn garbage_streams_never_panic_recv(
        seed in 0u64..u64::MAX,
        n in 0usize..512,
    ) {
        let garbage = bytes(seed, n);
        let _ = unframed(&mut garbage.as_slice());
    }
}
