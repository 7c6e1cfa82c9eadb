//! The wire protocol (SERVING.md "Protocol"): length-prefixed JSON frames.
//!
//! Every message is a 4-byte big-endian payload length followed by exactly
//! that many bytes of UTF-8 JSON — one [`Request`] per client frame, one
//! [`Response`] per server frame. Length prefixing keeps framing independent
//! of JSON whitespace and lets both sides pipeline: a client may have many
//! requests in flight and match tune responses back by their correlation
//! `id` (control responses carry no id and arrive in request order relative
//! to each other on one connection).
//!
//! A tune request is answered by exactly one frame — [`Response::Tune`] on
//! the happy path, or [`Response::Rejected`] when the daemon degrades under
//! load (queue full, deadline passed) rather than stall. Rejection carries
//! the request's correlation id, so pipelined clients account for shed
//! requests the same way they account for predictions (DESIGN.md §17).

use pnp_core::registry::ModelSummary;
use pnp_core::serving::{TuneRequest, TuneResponse};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Frames larger than this are rejected — a corrupt or hostile length
/// prefix must not make the daemon allocate gigabytes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Protocol revision spoken by this build, reported in [`ServeStats`].
///
/// * **1** — the original surface: `Tune`/`List`/`Describe`/`Stats`/
///   `SetWorkers`/`Ping`/`Shutdown`.
/// * **2** — adds the optional `deadline_ms` field on tune requests and the
///   [`Response::Rejected`] variant (load shedding + deadlines,
///   DESIGN.md §17). Version-1 clients interoperate: an absent
///   `deadline_ms` parses as "no deadline", and a daemon that never sheds
///   never emits `Rejected`.
pub const PROTOCOL_VERSION: u32 = 2;

/// One client request.
///
/// A deadline-annotated tune request round-trips the envelope unchanged —
/// the `deadline_ms` budget is measured by the daemon from admission, so
/// the client only states the budget, never a wall-clock time:
///
/// ```
/// use pnp_core::serving::{KernelInput, TuneObjective, TuneRequest};
/// use pnp_serve::{read_message, write_message, Request};
///
/// let request = Request::Tune(TuneRequest {
///     id: 41,
///     machine: "haswell".into(),
///     objective: TuneObjective::Edp,
///     kernel: KernelInput::Source {
///         app: "demo".into(),
///         regions: vec![],
///         region: "r0".into(),
///     },
///     deadline_ms: Some(50), // answer within 50 ms of admission, or shed
/// });
/// let mut wire = Vec::new();
/// write_message(&mut wire, &request).unwrap();
/// match read_message::<Request>(&mut wire.as_slice()).unwrap() {
///     Some(Request::Tune(tune)) => {
///         assert_eq!(tune.id, 41);
///         assert_eq!(tune.deadline_ms, Some(50));
///     }
///     other => panic!("expected a tune request, got {other:?}"),
/// }
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Request {
    /// Tune one kernel (the hot path; batched by the dispatcher).
    Tune(TuneRequest),
    /// List every model grid in the registry.
    List,
    /// Describe one model by registry id.
    Describe {
        /// The registry id (as returned by `List`).
        id: String,
    },
    /// Serving counters since startup.
    Stats,
    /// Set the batch worker count (0 = one worker per available core).
    SetWorkers {
        /// The new worker count.
        workers: usize,
    },
    /// Liveness probe.
    Ping,
    /// Stop the daemon after this response.
    Shutdown,
}

/// Why the daemon refused a tune request instead of answering it.
///
/// Both reasons are *degradation*, not failure: the daemon is healthy and
/// explicitly chose not to spend inference on this request. Predictions
/// that are served remain bit-identical to the offline path — shedding
/// changes which requests are answered, never what an answer contains
/// (DESIGN.md §17).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The dispatcher queue was at `--max-queue` when the request arrived;
    /// admitting it would only grow latency for everyone. Back off and
    /// retry.
    Overloaded,
    /// The request's `deadline_ms` budget ran out while it waited in the
    /// queue; a prediction now would arrive too late to act on.
    DeadlineExceeded,
}

/// One server response.
///
/// This is what a shed response looks like on the wire — same envelope,
/// same correlation id a [`Response::Tune`] would have carried:
///
/// ```
/// use pnp_serve::{read_message, write_message, RejectReason, Response};
///
/// let shed = Response::Rejected {
///     id: 41,
///     reason: RejectReason::Overloaded,
/// };
/// let mut wire = Vec::new();
/// write_message(&mut wire, &shed).unwrap();
/// match read_message::<Response>(&mut wire.as_slice()).unwrap() {
///     Some(Response::Rejected { id, reason }) => {
///         assert_eq!(id, 41);
///         assert_eq!(reason, RejectReason::Overloaded);
///     }
///     other => panic!("expected a rejection, got {other:?}"),
/// }
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Tune`], correlated by `id`.
    Tune(TuneResponse),
    /// A tune request the daemon refused under load — queue full or
    /// deadline passed — correlated by `id` like a tune answer. A typed
    /// rejection, not an `Error`: protocol and kernel errors stay
    /// distinguishable from deliberate load shedding.
    Rejected {
        /// The correlation id of the refused [`Request::Tune`].
        id: u64,
        /// Why it was refused.
        reason: RejectReason,
    },
    /// Answer to [`Request::List`].
    Models {
        /// Every registry model, serveable or not.
        models: Vec<ModelSummary>,
    },
    /// Answer to [`Request::Describe`] — `None` for an unknown id.
    Description {
        /// The human-readable description.
        text: Option<String>,
    },
    /// Answer to [`Request::Stats`].
    Stats(ServeStats),
    /// Acknowledgement of `SetWorkers`/`Ping`/`Shutdown`.
    Ok,
    /// A malformed frame or unhandled request.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// Serving counters, reported by [`Request::Stats`] and printed at shutdown.
///
/// The degradation counters (DESIGN.md §17) are the operator's overload
/// dashboard: `shed_requests`/`deadline_expired` say how much traffic was
/// refused and why, `queue_depth` is the live backlog watermark, and
/// `reloads` counts hot model swaps picked up from the store without a
/// restart. SERVING.md "Overload behavior" tabulates what to watch.
///
/// ```
/// use pnp_serve::{ServeStats, PROTOCOL_VERSION};
///
/// let stats = ServeStats {
///     requests: 872,
///     shed_requests: 120,
///     deadline_expired: 8,
///     queue_depth: 3,
///     reloads: 1,
///     protocol: PROTOCOL_VERSION,
///     ..ServeStats::default()
/// };
/// // Every tune request was either answered (`requests`) or refused with
/// // a typed rejection — the three counters partition offered traffic.
/// let offered = stats.requests + stats.shed_requests + stats.deadline_expired;
/// assert_eq!(offered, 1000);
/// assert!(stats.reloads > 0, "the daemon picked up a store update live");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Tune requests answered (success or error) since startup.
    pub requests: u64,
    /// Dispatcher batches executed.
    pub batches: u64,
    /// Largest batch executed.
    pub max_batch_seen: u64,
    /// Fused objective groups dispatched: within a dispatcher batch,
    /// requests for the same machine and objective run as one
    /// block-diagonal forward per fold model (DESIGN.md §15).
    pub fused_batches: u64,
    /// Tune requests carried by fused groups (every request that reached
    /// its machine's service, including ones that failed kernel resolution
    /// in-slot).
    pub fused_graphs: u64,
    /// Largest fused group — the most graphs one block-diagonal forward
    /// has carried.
    pub max_fused_batch: u64,
    /// Machines with a ready service.
    pub machines: Vec<String>,
    /// Grids that restored cleanly at startup.
    pub grids_loaded: usize,
    /// Grids skipped at startup (unfit / corrupt / unjoined).
    pub grids_skipped: usize,
    /// Current batch worker count (0 = auto).
    pub workers: usize,
    /// Tune requests refused at admission because the dispatcher queue was
    /// at `--max-queue` ([`RejectReason::Overloaded`]).
    pub shed_requests: u64,
    /// Tune requests whose `deadline_ms` budget ran out in the queue
    /// ([`RejectReason::DeadlineExceeded`]).
    pub deadline_expired: u64,
    /// Tune requests admitted but not yet dispatched — the live backlog
    /// gauge. Admission sheds once this reaches `--max-queue`.
    pub queue_depth: u64,
    /// Completed hot model reloads: store-generation changes picked up by
    /// the registry watcher and swapped in without a restart.
    pub reloads: u64,
    /// Protocol revision of the daemon ([`PROTOCOL_VERSION`]).
    pub protocol: u32,
}

/// Writes one length-prefixed frame as a single `write_all` followed by one
/// `flush`.
///
/// The length prefix and the payload are built in one buffer, so on a TCP
/// socket the frame leaves as one segment (frames here are ~1 KB). Writing
/// the prefix and the payload separately would leave the payload behind
/// Nagle's algorithm until the peer acknowledges the prefix, and the peer
/// may delay that acknowledgement by tens of milliseconds (SERVING.md "The
/// wire protocol"). The bytes on the wire are the same either way.
///
/// A payload longer than [`MAX_FRAME`] is an
/// [`std::io::ErrorKind::InvalidInput`] error, and nothing is written.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "outgoing frame of {} bytes exceeds MAX_FRAME {MAX_FRAME}",
                payload.len()
            ),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean end-of-stream
/// (EOF before any length byte); anything else incomplete is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, String> {
    let mut len_bytes = [0u8; 4];
    let (first, rest) = len_bytes.split_at_mut(1);
    match r.read(first) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(format!("read length: {e}")),
    }
    r.read_exact(rest)
        .map_err(|e| format!("read length: {e}"))?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(format!("frame length {len} exceeds MAX_FRAME {MAX_FRAME}"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| format!("read payload: {e}"))?;
    Ok(Some(payload))
}

/// Serializes and writes one message as one frame ([`write_frame`]: one
/// write, one flush).
pub fn write_message<T: Serialize>(w: &mut impl Write, message: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(message)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    write_frame(w, json.as_bytes())
}

/// Reads and parses one message; `Ok(None)` on clean end-of-stream.
pub fn read_message<T: Deserialize>(r: &mut impl Read) -> Result<Option<T>, String> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&payload).map_err(|e| format!("frame is not UTF-8: {e}"))?;
    serde_json::from_str(text)
        .map(Some)
        .map_err(|e| format!("malformed message: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&b"world"[..])
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    /// A sink that records every `write` call and counts `flush`es.
    #[derive(Default)]
    struct CountingSink {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write_then_one_flush() {
        let mut sink = CountingSink::default();
        write_frame(&mut sink, b"hello").unwrap();
        assert_eq!(sink.writes, vec![b"\0\0\0\x05hello".to_vec()]);
        assert_eq!(sink.flushes, 1);

        let message = Request::Describe { id: "x".into() };
        let mut sink = CountingSink::default();
        write_message(&mut sink, &message).unwrap();
        let mut wire = Vec::new();
        write_message(&mut wire, &message).unwrap();
        assert_eq!(sink.writes, vec![wire]);
        assert_eq!(sink.flushes, 1);
    }

    #[test]
    fn an_oversized_outgoing_frame_is_invalid_input_and_writes_nothing() {
        let mut sink = CountingSink::default();
        let payload = vec![b' '; MAX_FRAME + 1];
        let err = write_frame(&mut sink, &payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(sink.writes.is_empty());
        assert_eq!(sink.flushes, 0);
    }

    /// A source that counts `read` calls.
    struct CountingSource<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl Read for CountingSource<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_buffered_reader_shares_one_read_among_pipelined_frames() {
        let mut wire = Vec::new();
        for _ in 0..10 {
            write_message(&mut wire, &Request::Ping).unwrap();
        }
        let mut raw = CountingSource {
            bytes: &wire,
            reads: 0,
        };
        while read_frame(&mut raw).unwrap().is_some() {}
        assert_eq!(
            raw.reads,
            3 * 10 + 1,
            "length byte, rest of length, payload"
        );
        let mut buffered = std::io::BufReader::new(CountingSource {
            bytes: &wire,
            reads: 0,
        });
        while read_frame(&mut buffered).unwrap().is_some() {}
        assert_eq!(buffered.get_ref().reads, 2, "one fill, then end of stream");
    }

    #[test]
    fn oversized_and_truncated_frames_are_errors_not_hangs() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&((MAX_FRAME as u32) + 1).to_be_bytes());
        assert!(read_frame(&mut Cursor::new(oversized)).is_err());
        let mut truncated = Vec::new();
        truncated.extend_from_slice(&8u32.to_be_bytes());
        truncated.extend_from_slice(b"abc");
        assert!(read_frame(&mut Cursor::new(truncated)).is_err());
    }

    #[test]
    fn messages_round_trip_through_the_envelope() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Request::Ping).unwrap();
        write_message(&mut buf, &Request::Describe { id: "x".into() }).unwrap();
        write_message(&mut buf, &Response::Ok).unwrap();
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            read_message::<Request>(&mut cursor).unwrap(),
            Some(Request::Ping)
        ));
        match read_message::<Request>(&mut cursor).unwrap() {
            Some(Request::Describe { id }) => assert_eq!(id, "x"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            read_message::<Response>(&mut cursor).unwrap(),
            Some(Response::Ok)
        ));
        assert!(read_message::<Response>(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn garbage_payloads_are_parse_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"not json").unwrap();
        assert!(read_message::<Request>(&mut Cursor::new(buf)).is_err());
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0xFF, 0xFE]).unwrap();
        assert!(read_message::<Request>(&mut Cursor::new(buf)).is_err());
    }
}
