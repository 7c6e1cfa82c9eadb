//! The daemon's I/O layer: connection handling, the batching dispatcher,
//! admission control, per-request deadlines, and a small blocking
//! [`Client`].
//!
//! Tune requests from every connection funnel into one dispatcher thread,
//! which drains whatever has accumulated (up to `max_batch`) and hands the
//! batch to [`ServeEngine::tune_batch`] — so concurrent clients are batched
//! together, and the first request of a batch is served at once, not held
//! for a batching timer. Control requests (`List`, `Stats`, ...) are
//! answered inline by the connection's reader. Each connection has a single
//! writer thread; every response — tune or control — goes through it, so
//! frames never interleave.
//!
//! Nor does the socket hold a frame back. Every frame leaves as one write
//! ([`crate::protocol::write_frame`]), and both ends set `TCP_NODELAY`: the
//! daemon on every accepted connection, [`Client::connect`] on its own. A
//! frame split over two writes without `TCP_NODELAY` waits in Nagle's
//! algorithm for the peer's delayed acknowledgement of its first part
//! (SERVING.md "The wire protocol").
//!
//! Under overload the daemon degrades by *refusing* work, never by
//! computing it differently (DESIGN.md §17): a tune request that cannot
//! take a dispatcher-queue slot is answered immediately with a typed
//! `Rejected { reason: Overloaded }`, and a queued request whose
//! `deadline_ms` budget runs out is answered with
//! `Rejected { reason: DeadlineExceeded }` instead of occupying a batch
//! slot. Successful responses stay bit-identical to an unloaded daemon's.

use crate::engine::ServeEngine;
use crate::protocol::{read_message, write_message, RejectReason, Request, Response};
use pnp_core::serving::TuneRequest;
use std::io::{BufReader, Read, Stdout, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Default upper bound on one dispatcher batch.
pub const DEFAULT_MAX_BATCH: usize = 64;

/// Time source for admission stamps and deadline checks. The binaries pass
/// `Arc::new(Instant::now)`; tests pass a fake clock so deadline expiry is
/// deterministic. The serving library itself never reads the wall clock.
pub type Clock = Arc<dyn Fn() -> Instant + Send + Sync>;

/// I/O-layer knobs: batching, admission control, and the time source.
#[derive(Clone)]
pub struct ServeConfig {
    /// Upper bound on one dispatcher batch (clamped to at least 1).
    pub max_batch: usize,
    /// Upper bound on queued-but-unserved tune requests across all
    /// connections. A request arriving when the queue is full is shed with
    /// a typed `Rejected { reason: Overloaded }` (DESIGN.md §17). `0` sheds
    /// every tune request — useful as a drain/test mode, never a sensible
    /// serving configuration.
    pub max_queue: usize,
    /// Time source (see [`Clock`]).
    pub clock: Clock,
}

impl ServeConfig {
    /// A config with the given bounds and the given time source.
    pub fn new(max_batch: usize, max_queue: usize, clock: Clock) -> ServeConfig {
        ServeConfig {
            max_batch,
            max_queue,
            clock,
        }
    }
}

struct Work {
    request: TuneRequest,
    reply: mpsc::Sender<Response>,
    /// When [`ServeEngine::admit`] accepted this request — the start of its
    /// `deadline_ms` budget.
    admitted_at: Instant,
}

/// `true` once `work`'s deadline budget is spent at time `now`. Requests
/// without a deadline never expire.
fn expired(work: &Work, now: Instant) -> bool {
    match work.request.deadline_ms {
        Some(budget) => now.duration_since(work.admitted_at).as_millis() > u128::from(budget),
        None => false,
    }
}

fn reject(work: Work, reason: RejectReason) {
    // A disconnected client cannot receive its rejection; drop it.
    let _ = work.reply.send(Response::Rejected {
        id: work.request.id,
        reason,
    });
}

fn dispatcher(engine: Arc<ServeEngine>, rx: mpsc::Receiver<Work>, max_batch: usize, clock: Clock) {
    while let Ok(first) = rx.recv() {
        // Deadline check #1 — at dequeue: a request that aged out while
        // queued is answered without ever taking a batch slot, so one slow
        // burst cannot make the daemon spend cycles on answers nobody is
        // waiting for (DESIGN.md §17).
        let mut batch = Vec::with_capacity(max_batch);
        for work in std::iter::once(first).chain(std::iter::from_fn(|| rx.try_recv().ok())) {
            engine.departed();
            if expired(&work, (clock)()) {
                engine.note_deadline_expired();
                reject(work, RejectReason::DeadlineExceeded);
            } else {
                batch.push(work);
            }
            if batch.len() >= max_batch {
                break;
            }
        }
        // Deadline check #2 — at batch formation: draining the queue takes
        // time too; re-stamp `now` once for the whole batch so a request
        // admitted with a tiny budget cannot sneak into a fused forward
        // after its deadline passed.
        let now = (clock)();
        let (batch, late): (Vec<Work>, Vec<Work>) =
            batch.into_iter().partition(|work| !expired(work, now));
        for work in late {
            engine.note_deadline_expired();
            reject(work, RejectReason::DeadlineExceeded);
        }
        if batch.is_empty() {
            continue;
        }
        let requests: Vec<TuneRequest> = batch.iter().map(|w| w.request.clone()).collect();
        let responses = engine.tune_batch(&requests);
        for (work, response) in batch.into_iter().zip(responses) {
            // A disconnected client cannot receive its response; drop it.
            let _ = work.reply.send(Response::Tune(response));
        }
    }
}

/// The outgoing half of a connection.
trait Outgoing: Write + Send + 'static {
    /// Ends the connection after a failed write, so its reader stops too.
    fn close(&self);
}

impl Outgoing for TcpStream {
    fn close(&self) {
        // Already closed by the peer is fine: the reader sees EOF either way.
        let _ = self.shutdown(Shutdown::Both);
    }
}

impl Outgoing for Stdout {
    /// Standard output cannot be half-closed; the reader ends on its own
    /// once a reply finds the writer gone.
    fn close(&self) {}
}

/// Prepares an accepted connection: sets `TCP_NODELAY` and splits it into a
/// buffered reader and a writer. Failing to set `TCP_NODELAY` is not fatal —
/// the connection works, only with Nagle's algorithm on.
fn accept_connection(stream: TcpStream) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let _ = stream.set_nodelay(true);
    let writer = stream.try_clone()?;
    Ok((BufReader::new(stream), writer))
}

/// Reads requests from `reader`, answering control requests inline and
/// forwarding tune requests to the dispatcher; `writer` is owned by a
/// dedicated thread draining the reply channel, and a failed write (the
/// peer is gone, or a response exceeds `MAX_FRAME`) closes the connection.
/// Returns when the peer disconnects, sends garbage, or asks for shutdown.
fn handle_streams(
    mut reader: impl Read,
    mut writer: impl Outgoing,
    engine: &ServeEngine,
    work_tx: &mpsc::Sender<Work>,
    stop: &AtomicBool,
    config: &ServeConfig,
) {
    let (reply_tx, reply_rx) = mpsc::channel::<Response>();
    let writer_thread = thread::spawn(move || {
        for response in reply_rx {
            if write_message(&mut writer, &response).is_err() {
                writer.close();
                break;
            }
        }
    });
    loop {
        let request = match read_message::<Request>(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => break,
            Err(why) => {
                let _ = reply_tx.send(Response::Error { message: why });
                break;
            }
        };
        let response = match request {
            Request::Tune(tune) => {
                // Admission control: reserve a queue slot or shed fast with
                // a typed rejection — the client learns in one round-trip
                // that it must back off (DESIGN.md §17).
                if !engine.admit(config.max_queue) {
                    if reply_tx
                        .send(Response::Rejected {
                            id: tune.id,
                            reason: RejectReason::Overloaded,
                        })
                        .is_err()
                    {
                        break;
                    }
                    continue;
                }
                let work = Work {
                    request: tune,
                    reply: reply_tx.clone(),
                    admitted_at: (config.clock)(),
                };
                if work_tx.send(work).is_err() {
                    engine.departed();
                    let _ = reply_tx.send(Response::Error {
                        message: "dispatcher stopped".into(),
                    });
                    break;
                }
                continue;
            }
            Request::List => Response::Models {
                models: engine
                    .registry()
                    .models()
                    .iter()
                    .map(|m| m.summary())
                    .collect(),
            },
            Request::Describe { id } => Response::Description {
                text: engine.registry().describe(&id),
            },
            Request::Stats => Response::Stats(engine.stats()),
            Request::SetWorkers { workers } => {
                engine.set_workers(workers);
                Response::Ok
            }
            Request::Ping => Response::Ok,
            Request::Shutdown => {
                stop.store(true, Ordering::SeqCst);
                let _ = reply_tx.send(Response::Ok);
                break;
            }
        };
        if reply_tx.send(response).is_err() {
            break;
        }
    }
    drop(reply_tx);
    let _ = writer_thread.join();
}

/// Serves `engine` on `listener` until a client sends `Shutdown`. Each
/// connection gets reader + writer threads; tune requests are batched
/// across connections by the shared dispatcher, bounded by
/// [`ServeConfig::max_queue`].
pub fn serve(listener: TcpListener, engine: Arc<ServeEngine>, config: ServeConfig) {
    let local = listener.local_addr().ok();
    let stop = Arc::new(AtomicBool::new(false));
    let (work_tx, work_rx) = mpsc::channel::<Work>();
    let dispatcher_thread = {
        let engine = engine.clone();
        let clock = config.clock.clone();
        let max_batch = config.max_batch.max(1);
        thread::spawn(move || dispatcher(engine, work_rx, max_batch, clock))
    };

    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok((reader, writer)) = stream.and_then(accept_connection) else {
            continue;
        };
        let engine = engine.clone();
        let work_tx = work_tx.clone();
        let stop_conn = stop.clone();
        let stop_accept = stop.clone();
        let config = config.clone();
        thread::spawn(move || {
            handle_streams(reader, writer, &engine, &work_tx, &stop_conn, &config);
            // A shutdown request must also unblock the accept loop.
            if stop_accept.load(Ordering::SeqCst) {
                if let Some(addr) = local {
                    let _ = TcpStream::connect(addr);
                }
            }
        });
    }
    drop(work_tx);
    let _ = dispatcher_thread.join();
}

/// Serves one session over stdin/stdout (the `--stdio` mode: no socket, no
/// port file — for harnesses and debugging with a driving process).
pub fn serve_stdio(engine: Arc<ServeEngine>, config: ServeConfig) {
    let stop = AtomicBool::new(false);
    let (work_tx, work_rx) = mpsc::channel::<Work>();
    let dispatcher_thread = {
        let engine = engine.clone();
        let clock = config.clock.clone();
        let max_batch = config.max_batch.max(1);
        thread::spawn(move || dispatcher(engine, work_rx, max_batch, clock))
    };
    handle_streams(
        std::io::stdin().lock(),
        std::io::stdout(),
        &engine,
        &work_tx,
        &stop,
        &config,
    );
    drop(work_tx);
    let _ = dispatcher_thread.join();
}

/// A blocking client: one request, one response. For pipelined load
/// generation use [`Client::into_stream`] and drive the two directions from
/// separate threads with the `protocol` functions.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a daemon and sets `TCP_NODELAY` on the socket, so a
    /// request frame is sent as soon as it is written (SERVING.md "The wire
    /// protocol"). An error setting it is returned like a connect error.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// The peer address.
    pub fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.stream.peer_addr()
    }

    /// Sends one request and waits for the next response frame.
    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        self.send(request)?;
        self.receive()
    }

    /// Sends one request without waiting — pair with [`Client::receive`] to
    /// pipeline many requests over the connection so the dispatcher can
    /// drain and fuse them into block-diagonal batches.
    pub fn send(&mut self, request: &Request) -> Result<(), String> {
        write_message(&mut self.stream, request).map_err(|e| format!("send: {e}"))
    }

    /// Reads the next response frame (tune responses are correlated by id,
    /// not arrival order).
    pub fn receive(&mut self) -> Result<Response, String> {
        read_message(&mut self.stream)?.ok_or_else(|| "server closed the connection".to_string())
    }

    /// Hands out the raw stream for pipelined use, `TCP_NODELAY` still
    /// set. The client reads unbuffered, so no received bytes are left
    /// behind in a buffer.
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use pnp_core::registry::ModelRegistry;
    use pnp_store::Store;
    use std::sync::atomic::AtomicUsize;

    /// An outgoing half whose every write fails, counting `close` calls.
    struct BrokenPipe(Arc<AtomicUsize>);

    impl Write for BrokenPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Outgoing for BrokenPipe {
        fn close(&self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_failed_response_write_closes_the_connection() {
        let dir = std::env::temp_dir().join(format!("pnp_server_close_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (engine, _) = ServeEngine::start(
            ModelRegistry::open(Store::open(&dir)),
            &EngineConfig { workers: 1 },
        );
        let mut wire = Vec::new();
        write_message(&mut wire, &Request::Ping).unwrap();
        let closes = Arc::new(AtomicUsize::new(0));
        let (work_tx, _work_rx) = mpsc::channel();
        handle_streams(
            wire.as_slice(),
            BrokenPipe(closes.clone()),
            &engine,
            &work_tx,
            &AtomicBool::new(false),
            &ServeConfig::new(DEFAULT_MAX_BATCH, 0, Arc::new(Instant::now)),
        );
        assert_eq!(closes.load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn client_and_daemon_sockets_are_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "sockets start with Nagle on");
        let (reader, writer) = accept_connection(accepted).unwrap();
        assert!(writer.nodelay().unwrap());
        assert!(reader.get_ref().nodelay().unwrap());
        assert!(client.into_stream().nodelay().unwrap());
    }
}
