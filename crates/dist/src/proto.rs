//! The wire protocol between the dist coordinator and its workers.
//!
//! One frame layout serves the control plane (assign / continue /
//! gather / finish / abort) and the data plane (halo blocks, a period's
//! plane partials, the job's one field gather):
//!
//! ```text
//! [u32 LE payload length][u8 kind][payload][u64 LE checksum]
//! ```
//!
//! The payload is a small typed header ([`Msg`]) optionally followed by
//! a bulk body of field rows. A sender builds the whole frame in one
//! reusable buffer ([`begin_frame`], append the body, [`seal_frame`]);
//! a receiver reads it into one reusable buffer ([`read_frame_into`])
//! and pastes rows straight out of it — one copy and one checksum pass
//! per side. The checksum ([`checksum`]) is a word-at-a-time 4-lane
//! multiply-rotate hash in the XXH64 mould: it guards a local wire
//! against torn frames and flipped bits, not against an adversary, and
//! it runs at memory speed where the byte-serial FNV-1a-128 that names
//! store artifacts (`em_json::hash`, untouched) does not. Every parse
//! failure is an `Err`, never a panic: short reads, oversized length
//! prefixes, checksum mismatches and malformed payloads all surface as
//! [`FrameError`] so a chaos-injected partner can never take the peer
//! down with it.

use std::io::{Read, Write};

use mwd_core::SolveError;

/// Hard cap on the payload length a reader will allocate for. Large
/// enough for a gathered field slab of any realistic grid, small
/// enough that a corrupted length prefix cannot OOM the process.
pub const MAX_FRAME: usize = 256 << 20;

/// Bytes in front of a payload (length, kind).
const HEAD: usize = 4 + 1;

/// Bytes of frame overhead around a payload (length, kind, checksum).
pub const FRAME_OVERHEAD: usize = HEAD + 8;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF on the frame boundary — the peer closed the stream.
    Eof,
    /// The stream ended (or errored) mid-frame.
    Torn(String),
    /// The frame arrived whole but its checksum or payload is invalid.
    Corrupt(String),
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// Any other I/O failure (timeouts included).
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Torn(e) => write!(f, "torn frame: {e}"),
            FrameError::Corrupt(e) => write!(f, "corrupt frame: {e}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;

#[inline]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Fold one word into the running hash: a bijection of `h` for a fixed
/// word and of the word for a fixed `h`.
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    (h ^ round(0, w))
        .rotate_left(27)
        .wrapping_mul(P1)
        .wrapping_add(P4)
}

/// The frame checksum over `kind` and `payload`: four independent
/// multiply-rotate lanes eat 32 bytes per iteration, the tail goes word
/// by word, and the header (`kind`, length) is folded in last — a flip
/// in the kind byte or the length prefix alone always changes the sum.
pub fn checksum(kind: u8, payload: &[u8]) -> u64 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
    let mut stripes = payload.chunks_exact(32);
    for s in &mut stripes {
        for (lane, w) in lanes.iter_mut().zip(s.chunks_exact(8)) {
            *lane = round(*lane, word(w));
        }
    }
    let mut h = lanes.into_iter().fold(P3, mix);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = mix(h, word(w));
    }
    for &byte in words.remainder() {
        h = mix(h, byte as u64);
    }
    h = mix(h, ((payload.len() as u64) << 8) | kind as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Start a frame of `msg` in `buf` (cleared first): the length slot,
/// the kind and the message header. The caller appends the bulk body,
/// if the message has one, then calls [`seal_frame`].
pub fn begin_frame(buf: &mut Vec<u8>, msg: &Msg) {
    buf.clear();
    buf.extend_from_slice(&[0, 0, 0, 0, msg.kind()]);
    msg.encode(buf);
}

/// Finish the frame begun in `buf`: patch the length prefix and append
/// the checksum. `buf` is then the frame's wire bytes.
pub fn seal_frame(buf: &mut Vec<u8>) {
    let len = buf.len() - HEAD;
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    let sum = checksum(buf[4], &buf[HEAD..]);
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// Serialize one frame to its wire bytes.
pub fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    out.extend_from_slice(&[0, 0, 0, 0, kind]);
    out.extend_from_slice(payload);
    seal_frame(&mut out);
    out
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8], started: bool) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if started || filled > 0 {
                    FrameError::Torn(format!(
                        "stream closed after {filled} of {} bytes",
                        buf.len()
                    ))
                } else {
                    FrameError::Eof
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Read one frame's payload into `buf` (resized to fit, so a buffer
/// reused for equal-sized frames is never refilled), verifying length
/// cap and checksum. Returns the frame kind.
pub fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<u8, FrameError> {
    let mut head = [0u8; HEAD];
    read_exact_or(r, &mut head, false)?;
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
    let kind = head[4];
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    buf.resize(len + 8, 0);
    read_exact_or(r, buf, true)?;
    let sum = word(&buf[len..]);
    buf.truncate(len);
    if checksum(kind, buf) != sum {
        return Err(FrameError::Corrupt(format!(
            "checksum mismatch on kind {kind} ({len}-byte payload)"
        )));
    }
    Ok(kind)
}

/// Read one frame into a fresh buffer.
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), FrameError> {
    let mut payload = Vec::new();
    let kind = read_frame_into(r, &mut payload)?;
    Ok((kind, payload))
}

// ------------------------------------------------------------ payloads

/// Append-only little-endian encoders for message payloads.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked payload reader; every accessor errors (never panics)
/// on truncated input.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("payload truncated reading {what}"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub fn f64(&mut self, what: &str) -> Result<f64, String> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub fn str(&mut self, what: &str) -> Result<String, String> {
        let n = self.u32(what)? as usize;
        let b = self.take(n, what)?;
        String::from_utf8(b.to_vec()).map_err(|_| format!("{what} is not UTF-8"))
    }

    /// Everything not yet consumed: the bulk body behind a header.
    pub fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
}

// ------------------------------------------------------------ messages

/// Which face of the *sender's* slab a halo block was cut from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The sender's lowest owned planes, bound for its lower neighbour.
    Bottom,
    /// The sender's highest owned planes, bound for its upper neighbour.
    Top,
}

/// Every message the coordinator and workers exchange, on either the
/// control stream or a worker-to-worker halo link. `Halo`,
/// `PeriodDone` and a worker's `Gather` are headers: what they announce
/// follows as the frame's bulk body (see [`Msg::decode`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Worker -> coordinator, first frame on the control stream.
    Hello { index: u32 },
    /// Coordinator -> worker: the job, this worker's z-slab and the
    /// halo depth `k` (= steps between exchanges) of the whole group.
    Assign {
        index: u32,
        workers: u32,
        z0: u32,
        nz_local: u32,
        halo: u32,
        job_index: u32,
        /// Remaining deadline in ms (0 = none).
        deadline_ms: u64,
        spec_toml: String,
    },
    /// Worker -> coordinator: where this worker accepts its *upper*
    /// neighbor's halo link.
    ListenPort { port: u16 },
    /// Coordinator -> worker: connect your halo link down to this port.
    ConnectDown { port: u16 },
    /// Worker -> coordinator: slab built, halo links wired. The header
    /// is the build's telemetry — seconds from assignment to cropped
    /// slab, and what the slab's coefficient arrays hold
    /// (`em_field::CoeffStats`) — for the coordinator's `solver_build`
    /// span.
    Ready {
        build_s: f64,
        coeff_rows_distinct: u64,
        coeff_rows_total: u64,
        coeff_bytes: u64,
    },
    /// Halo link: exchange number `block` of the solve; the body holds
    /// `planes` owned z planes of all twelve field arrays.
    Halo { block: u32, side: Side, planes: u32 },
    /// Worker -> coordinator: one period done. The body holds the
    /// convergence partials `num_z, den_z` (f64 little-endian) of the
    /// slab's owned planes in ascending z — empty in period 1, which has
    /// nothing to compare with; the header is the period's telemetry:
    /// halo blocks applied, each blocked wait, and where the worker's
    /// time went. `reduce_s` covers reducing the planes *and sending*
    /// this frame, so it is the previous period's (0 in period 1) — a
    /// frame cannot time its own send.
    PeriodDone {
        period: u32,
        exchanges: u64,
        wait_secs: Vec<f64>,
        compute_s: f64,
        exchange_s: f64,
        reduce_s: f64,
    },
    /// Coordinator -> worker: run one more period.
    Continue,
    /// Coordinator -> worker, once per job after the last period: send
    /// your fields. The worker answers with the same kind, the body
    /// holding its slab's owned planes.
    Gather,
    /// Coordinator -> worker: converged / done; exit cleanly.
    Finish,
    /// Either direction: stop now (deadline, cancel, peer failure).
    Abort { reason: String },
    /// Worker -> coordinator: this worker halted or failed. The
    /// variant travels as a tag byte (0 failed, 1 cancelled, 2 timeout)
    /// in front of its text.
    WorkerErr { index: u32, error: SolveError },
}

impl Msg {
    pub fn kind(&self) -> u8 {
        match self {
            Msg::Hello { .. } => 1,
            Msg::Assign { .. } => 2,
            Msg::ListenPort { .. } => 3,
            Msg::ConnectDown { .. } => 4,
            Msg::Ready { .. } => 5,
            Msg::Halo { .. } => 6,
            Msg::PeriodDone { .. } => 8,
            Msg::Continue => 9,
            Msg::Finish => 10,
            Msg::Abort { .. } => 11,
            Msg::WorkerErr { .. } => 12,
            Msg::Gather => 13,
        }
    }

    /// Append this message's header to `b`.
    pub fn encode(&self, b: &mut Vec<u8>) {
        match self {
            Msg::Hello { index } => put_u32(b, *index),
            Msg::Assign {
                index,
                workers,
                z0,
                nz_local,
                halo,
                job_index,
                deadline_ms,
                spec_toml,
            } => {
                put_u32(b, *index);
                put_u32(b, *workers);
                put_u32(b, *z0);
                put_u32(b, *nz_local);
                put_u32(b, *halo);
                put_u32(b, *job_index);
                put_u64(b, *deadline_ms);
                put_str(b, spec_toml);
            }
            Msg::ListenPort { port } | Msg::ConnectDown { port } => put_u32(b, *port as u32),
            Msg::Ready {
                build_s,
                coeff_rows_distinct,
                coeff_rows_total,
                coeff_bytes,
            } => {
                put_f64(b, *build_s);
                put_u64(b, *coeff_rows_distinct);
                put_u64(b, *coeff_rows_total);
                put_u64(b, *coeff_bytes);
            }
            Msg::Continue | Msg::Finish | Msg::Gather => {}
            Msg::Halo {
                block,
                side,
                planes,
            } => {
                put_u32(b, *block);
                b.push(*side as u8);
                put_u32(b, *planes);
            }
            Msg::PeriodDone {
                period,
                exchanges,
                wait_secs,
                compute_s,
                exchange_s,
                reduce_s,
            } => {
                put_u32(b, *period);
                put_u64(b, *exchanges);
                put_u32(b, wait_secs.len() as u32);
                for w in wait_secs.iter().chain([compute_s, exchange_s, reduce_s]) {
                    put_f64(b, *w);
                }
            }
            Msg::Abort { reason } => put_str(b, reason),
            Msg::WorkerErr { index, error } => {
                put_u32(b, *index);
                let (tag, text) = match error {
                    SolveError::Failed(m) => (0, m),
                    SolveError::Cancelled(d) => (1, d),
                    SolveError::Timeout(d) => (2, d),
                };
                b.push(tag);
                put_str(b, text);
            }
        }
    }

    /// Decode a frame payload into its message and bulk body. Only
    /// `Halo`, `PeriodDone` and `Gather` may carry a body (whoever
    /// consumes it checks its length against the grid); trailing bytes
    /// behind any other message are an error.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<(Msg, &[u8]), String> {
        let mut c = Cursor::new(payload);
        let msg = match kind {
            1 => Msg::Hello {
                index: c.u32("Hello.index")?,
            },
            2 => Msg::Assign {
                index: c.u32("Assign.index")?,
                workers: c.u32("Assign.workers")?,
                z0: c.u32("Assign.z0")?,
                nz_local: c.u32("Assign.nz_local")?,
                halo: c.u32("Assign.halo")?,
                job_index: c.u32("Assign.job_index")?,
                deadline_ms: c.u64("Assign.deadline_ms")?,
                spec_toml: c.str("Assign.spec_toml")?,
            },
            3 => Msg::ListenPort {
                port: port_of(c.u32("ListenPort.port")?)?,
            },
            4 => Msg::ConnectDown {
                port: port_of(c.u32("ConnectDown.port")?)?,
            },
            5 => Msg::Ready {
                build_s: c.f64("Ready.build_s")?,
                coeff_rows_distinct: c.u64("Ready.coeff_rows_distinct")?,
                coeff_rows_total: c.u64("Ready.coeff_rows_total")?,
                coeff_bytes: c.u64("Ready.coeff_bytes")?,
            },
            6 => Msg::Halo {
                block: c.u32("Halo.block")?,
                side: match c.u8("Halo.side")? {
                    0 => Side::Bottom,
                    1 => Side::Top,
                    other => return Err(format!("Halo.side {other} is neither face")),
                },
                planes: c.u32("Halo.planes")?,
            },
            8 => {
                let period = c.u32("PeriodDone.period")?;
                let exchanges = c.u64("PeriodDone.exchanges")?;
                let n = c.u32("PeriodDone.waits")? as usize;
                if n > payload.len() / 8 {
                    return Err(format!("PeriodDone claims {n} wait samples"));
                }
                let mut wait_secs = Vec::with_capacity(n);
                for _ in 0..n {
                    wait_secs.push(c.f64("PeriodDone.wait")?);
                }
                Msg::PeriodDone {
                    period,
                    exchanges,
                    wait_secs,
                    compute_s: c.f64("PeriodDone.compute_s")?,
                    exchange_s: c.f64("PeriodDone.exchange_s")?,
                    reduce_s: c.f64("PeriodDone.reduce_s")?,
                }
            }
            9 => Msg::Continue,
            10 => Msg::Finish,
            11 => Msg::Abort {
                reason: c.str("Abort.reason")?,
            },
            12 => Msg::WorkerErr {
                index: c.u32("WorkerErr.index")?,
                error: match (c.u8("WorkerErr.tag")?, c.str("WorkerErr.text")?) {
                    (0, m) => SolveError::Failed(m),
                    (1, d) => SolveError::Cancelled(d),
                    (2, d) => SolveError::Timeout(d),
                    (tag, _) => return Err(format!("WorkerErr.tag {tag} names no outcome")),
                },
            },
            13 => Msg::Gather,
            other => return Err(format!("unknown frame kind {other}")),
        };
        let body = c.rest();
        let bulk = matches!(msg, Msg::Halo { .. } | Msg::PeriodDone { .. } | Msg::Gather);
        if !body.is_empty() && !bulk {
            return Err(format!(
                "{} trailing byte(s) after a kind-{kind} message",
                body.len()
            ));
        }
        Ok((msg, body))
    }
}

fn port_of(v: u32) -> Result<u16, String> {
    u16::try_from(v).map_err(|_| format!("port {v} out of range"))
}

/// Send one body-less message as a frame.
pub fn send(w: &mut impl Write, msg: &Msg) -> Result<(), String> {
    let mut frame = Vec::new();
    begin_frame(&mut frame, msg);
    seal_frame(&mut frame);
    w.write_all(&frame)
        .and_then(|_| w.flush())
        .map_err(|e| format!("send failed: {e}"))
}

/// Receive and decode one body-less message.
pub fn recv(r: &mut impl Read) -> Result<Msg, FrameError> {
    let (kind, payload) = read_frame(r)?;
    match Msg::decode(kind, &payload).map_err(FrameError::Corrupt)? {
        (msg, []) => Ok(msg),
        (_, body) => Err(FrameError::Corrupt(format!(
            "unexpected {}-byte bulk body on kind {kind}",
            body.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let bytes = frame_bytes(6, b"hello halo");
        assert_eq!(bytes.len(), FRAME_OVERHEAD + 10);
        let (kind, payload) = read_frame(&mut bytes.as_slice()).unwrap();
        assert_eq!(kind, 6);
        assert_eq!(payload, b"hello halo");
    }

    #[test]
    fn a_frame_built_in_place_equals_the_one_shot_frame() {
        let msg = Msg::Halo {
            block: 4,
            side: Side::Top,
            planes: 2,
        };
        let body: Vec<u8> = (0..77).collect();
        let mut built = vec![0xee; 300];
        begin_frame(&mut built, &msg);
        built.extend_from_slice(&body);
        seal_frame(&mut built);
        let mut payload = Vec::new();
        msg.encode(&mut payload);
        payload.extend_from_slice(&body);
        assert_eq!(built, frame_bytes(msg.kind(), &payload));
        assert_eq!(Msg::decode(msg.kind(), &payload).unwrap(), (msg, &body[..]));
    }

    #[test]
    fn the_checksum_sees_every_byte_the_kind_and_the_length() {
        // Lengths straddle the 32-byte stripe, the word tail and the
        // byte tail.
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 63, 64, 100] {
            let data: Vec<u8> = (0..len as u32).map(|i| (i * 37 + 11) as u8).collect();
            let sum = checksum(3, &data);
            assert_ne!(sum, checksum(4, &data), "kind, len {len}");
            for at in 0..len {
                let mut flipped = data.clone();
                flipped[at] ^= 0x10;
                assert_ne!(sum, checksum(3, &flipped), "byte {at} of {len}");
            }
            let mut longer = data.clone();
            longer.push(0);
            assert_ne!(sum, checksum(3, &longer), "zero-extension of {len}");
        }
    }

    #[test]
    fn clean_eof_is_distinguished_from_torn() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut &*empty), Err(FrameError::Eof)));
        let bytes = frame_bytes(5, &[]);
        let torn = &bytes[..bytes.len() - 1];
        assert!(matches!(read_frame(&mut &*torn), Err(FrameError::Torn(_))));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut bytes = frame_bytes(5, &[]);
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn every_message_roundtrips() {
        let mut msgs = vec![
            Msg::Hello { index: 3 },
            Msg::Assign {
                index: 1,
                workers: 2,
                z0: 12,
                nz_local: 12,
                halo: 4,
                job_index: 0,
                deadline_ms: 1500,
                spec_toml: "name = \"x\"".to_string(),
            },
            Msg::ListenPort { port: 40123 },
            Msg::ConnectDown { port: 40123 },
            Msg::Ready {
                build_s: 0.0625,
                coeff_rows_distinct: 139,
                coeff_rows_total: 33264,
                coeff_bytes: 240_000,
            },
            Msg::Halo {
                block: 7,
                side: Side::Bottom,
                planes: 6,
            },
            Msg::PeriodDone {
                period: 2,
                exchanges: 44,
                wait_secs: vec![0.25, 1e-6],
                compute_s: 0.5,
                exchange_s: 0.125,
                reduce_s: 0.0,
            },
            Msg::Continue,
            Msg::Gather,
            Msg::Finish,
            Msg::Abort {
                reason: "deadline".to_string(),
            },
        ];
        let errors = [
            SolveError::Failed,
            SolveError::Cancelled,
            SolveError::Timeout,
        ];
        for (index, error) in (0..).zip(errors.map(|e| e("boom".to_string()))) {
            msgs.push(Msg::WorkerErr { index, error });
        }
        for m in msgs {
            let mut wire = Vec::new();
            send(&mut wire, &m).unwrap();
            assert_eq!(recv(&mut wire.as_slice()).unwrap(), m);
        }
    }

    #[test]
    fn only_bulk_messages_may_trail_a_body() {
        let mut p = Vec::new();
        Msg::Continue.encode(&mut p);
        p.push(0);
        assert!(Msg::decode(9, &p).is_err());
        let halo = Msg::Halo {
            block: 0,
            side: Side::Top,
            planes: 1,
        };
        let mut frame = Vec::new();
        begin_frame(&mut frame, &halo);
        frame.push(9);
        seal_frame(&mut frame);
        // `recv` is the body-less door: a bulk frame is refused there.
        assert!(matches!(
            recv(&mut frame.as_slice()),
            Err(FrameError::Corrupt(_))
        ));
    }
}
