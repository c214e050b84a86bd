//! A line-based TCP front end over [`QueryService`] — `std::net` +
//! `std::thread` only, honoring the workspace's no-runtime-deps rule.
//!
//! One thread accepts connections; each connection gets a handler thread
//! that reads request lines and writes framed responses (see
//! [`crate::protocol`]) and evaluates each request itself: the service owns
//! no threads. A connection owns two byte buffers, one for the request line
//! and one for the response frame, reused from request to request. `respond`
//! consumes the request and everything the service returned for it while
//! filling the frame, so a response is one `write_all` and nothing is left
//! to do between that write and the next read; a `QUERY` frame is a header
//! line, the answer's encoded body (copied from the result cache on a hit)
//! and the terminator. A handler whose connection has ended serves the next one
//! instead of exiting (see `dispatch`), so the memory evaluations allocate
//! stays with the same few threads. Concurrency control lives in the
//! *service* — a flood of connections contends on its admission gate and is
//! shed with `ERR overloaded`, not on unbounded server-side buffers.
//!
//! The protocol is **unauthenticated**, so the filesystem-touching verb is
//! sandboxed: `LOAD` paths must be relative (no `..`) and resolve under a
//! data directory the *operator* configures with [`serve_with_data_dir`];
//! a server started with plain [`serve`] rejects `LOAD` outright. Bind
//! non-loopback addresses only if every reachable client is trusted —
//! `QUERY`/`INSERT`/`DELETE`/`SUBSCRIBE`/`STATS`/`DROP`/`PERSIST`/
//! `SHUTDOWN` have no access control either.
//!
//! `SUBSCRIBE` dedicates its connection to one live view: the handler
//! writes the initial answer frame, then alternates between forwarding
//! pushed delta frames and polling the socket for client input — any input
//! line (or EOF) ends the subscription (see [`crate::protocol`] for the
//! frame format).
//!
//! **Slow-client hardening**: accepted sockets carry read/write timeouts
//! (see [`ServerOptions`]). A client that stalls mid-request or stops
//! draining its response gets a best-effort `ERR request-timeout` and its
//! connection closed — one dead peer cannot pin a handler thread forever.
//! A request line longer than `MAX_REQUEST_BYTES` (1 MiB) is answered with
//! one `ERR proto` line and its connection closed, so no client can grow the
//! server's line buffer without bound.
//!
//! The wire `SHUTDOWN` verb performs a **graceful drain**: the service
//! stops admitting, in-flight requests finish under their own governors,
//! and — when durability is configured — the final catalog state is sealed
//! in a snapshot before `OK bye` is written.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::ServiceError;
use crate::protocol::{
    encode_query_response, parse_request, render_analyze_program_response, render_analyze_response,
    render_delta_frame, render_drop_response, render_error, render_explain_response,
    render_load_response, render_mutation_response, render_persist_response, render_stats_response,
    render_subscribe_response, Request, END,
};
use crate::service::QueryService;

/// Longest request line accepted, not counting its `\n`. The socket is
/// unauthenticated, so the line buffer must not grow with what a client
/// sends; the largest request in this repository's tests, examples and
/// benchmark is about 120 bytes.
const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// Largest response buffer a connection keeps between requests: one that
/// grew past this for a large answer is given back after the write, so an
/// idle connection does not pin its largest response.
const MAX_KEPT_RESPONSE_BYTES: usize = 1 << 20;

/// Server knobs beyond the address (see [`serve_with_options`]).
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Root for `LOAD` path resolution; `None` disables `LOAD` entirely.
    pub data_dir: Option<PathBuf>,
    /// Per-connection socket read timeout: how long a handler blocks
    /// waiting for the *next request line* before giving up on the client.
    /// `None` waits forever (pre-hardening behavior).
    pub read_timeout: Option<Duration>,
    /// Per-connection socket write timeout: how long a response write may
    /// stall on a client that stopped draining. `None` waits forever.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerOptions {
    /// Timeouts default *on* (read 300 s, write 30 s): an unattended server
    /// should shed dead peers without operator tuning.
    fn default() -> Self {
        ServerOptions {
            data_dir: None,
            read_timeout: Some(Duration::from_mins(5)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

struct Shared {
    service: Arc<QueryService>,
    stop: AtomicBool,
    addr: SocketAddr,
    options: ServerOptions,
}

/// A running server; dropping it does **not** stop the service (call
/// [`ServerHandle::stop`] or send `SHUTDOWN` over the wire).
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The service behind the server.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.shared.service
    }

    /// Block until the accept loop exits (a `SHUTDOWN` request or
    /// [`ServerHandle::stop`]).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stop the service and the accept loop, then block until the latter
    /// exits.
    pub fn stop(self) {
        self.shared.service.shutdown();
        request_stop(&self.shared);
        self.wait();
    }
}

/// Ask the accept loop to exit: set the flag, then poke the listener with a
/// throwaway connection so the blocking `accept` returns.
fn request_stop(shared: &Shared) {
    if !shared.stop.swap(true, Ordering::AcqRel) {
        let _ = TcpStream::connect(shared.addr);
    }
}

/// Bind `addr` and serve `service` until a `SHUTDOWN` request (or
/// [`ServerHandle::stop`]). The wire `LOAD` verb is **disabled** — clients
/// could otherwise read arbitrary server-readable files. Preload databases
/// through [`QueryService::load_str`], or use [`serve_with_data_dir`] to
/// allow `LOAD` within a sandbox directory.
///
/// # Errors
/// Propagates the bind failure.
pub fn serve(addr: impl ToSocketAddrs, service: Arc<QueryService>) -> io::Result<ServerHandle> {
    serve_with_options(addr, service, ServerOptions::default())
}

/// Like [`serve`], but wire `LOAD <name> <path>` is allowed for paths that
/// are relative, contain no `..` components, and are resolved against
/// `data_dir` — clients can only read files the operator placed under that
/// directory (modulo symlinks inside it; don't plant hostile ones).
///
/// # Errors
/// Propagates the bind failure.
pub fn serve_with_data_dir(
    addr: impl ToSocketAddrs,
    service: Arc<QueryService>,
    data_dir: impl Into<PathBuf>,
) -> io::Result<ServerHandle> {
    serve_with_options(
        addr,
        service,
        ServerOptions {
            data_dir: Some(data_dir.into()),
            ..Default::default()
        },
    )
}

/// Bind `addr` and serve with explicit [`ServerOptions`] (data directory
/// and slow-client timeouts).
///
/// # Errors
/// Propagates the bind failure.
pub fn serve_with_options(
    addr: impl ToSocketAddrs,
    service: Arc<QueryService>,
    options: ServerOptions,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let shared = Arc::new(Shared {
        service,
        stop: AtomicBool::new(false),
        addr: listener.local_addr()?,
        options,
    });
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("pq-service-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                dispatch(Conn {
                    stream,
                    shared: Arc::clone(&accept_shared),
                });
            }
        })?;
    Ok(ServerHandle {
        shared,
        accept: Some(accept),
    })
}

/// An accepted connection on its way to the thread that will serve it.
struct Conn {
    stream: TcpStream,
    shared: Arc<Shared>,
}

/// Handler threads parked between connections, by spawn number.
static PARKED: Mutex<BTreeMap<u64, mpsc::Sender<Conn>>> = Mutex::new(BTreeMap::new());
static HANDLERS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Most handler threads kept parked; one that finishes beyond that exits.
const MAX_PARKED: usize = 64;

fn parked() -> MutexGuard<'static, BTreeMap<u64, mpsc::Sender<Conn>>> {
    PARKED.lock().expect("parked handlers poisoned")
}

/// Give `conn` a handler thread: the lowest-numbered parked one, or a new
/// one. A handler whose connection has ended parks for the next, of this
/// server or a later one in the process, instead of exiting. A request is
/// evaluated on its connection's thread, so what it allocates — a cached
/// answer above all — lives in that thread's allocator arena, and freed
/// memory is reused only by threads of the same arena: with a new thread
/// per connection the resident set would depend on which arena each new
/// thread happened to be given. Taking the lowest number, not the latest
/// to park, keeps the choice independent of the order in which connections
/// happened to close.
fn dispatch(mut conn: Conn) {
    let lowest = parked().pop_first();
    if let Some((_, handler)) = lowest {
        // A parked handler waits in `recv` below, so this goes through.
        match handler.send(conn) {
            Ok(()) => return,
            Err(mpsc::SendError(back)) => conn = back,
        }
    }
    let id = HANDLERS_SPAWNED.fetch_add(1, Ordering::Relaxed);
    // Handlers are detached: a lingering client keeps its handler after the
    // server stops (every post-shutdown request is answered with
    // `ERR shutting-down`, so lingering clients drain cleanly).
    let _ = std::thread::Builder::new()
        .name("pq-service-conn".into())
        .spawn(move || loop {
            let Conn { stream, shared } = conn;
            handle_connection(stream, &shared);
            // A parked thread must not keep a stopped service alive.
            drop(shared);
            let (next, parking) = mpsc::channel();
            {
                let mut parked = parked();
                if parked.len() >= MAX_PARKED {
                    return;
                }
                parked.insert(id, next);
            }
            conn = match parking.recv() {
                Ok(next) => next,
                Err(_) => return,
            };
        });
}

/// Append `lines` to the frame in `out`.
fn push_lines(out: &mut Vec<u8>, lines: &[String]) {
    for l in lines {
        out.extend_from_slice(l.as_bytes());
        out.push(b'\n');
    }
}

/// Terminate the frame in `out`, write it, and leave `out` empty for the
/// next one.
fn send(stream: &mut TcpStream, out: &mut Vec<u8>) -> io::Result<()> {
    out.extend_from_slice(END.as_bytes());
    out.push(b'\n');
    let sent = stream.write_all(out);
    if out.capacity() > MAX_KEPT_RESPONSE_BYTES {
        *out = Vec::new();
    }
    out.clear();
    sent
}

/// Send a frame of `lines` alone.
fn send_lines(stream: &mut TcpStream, out: &mut Vec<u8>, lines: &[String]) -> io::Result<()> {
    push_lines(out, lines);
    send(stream, out)
}

/// Resolve a client-supplied `LOAD` path against the configured data
/// directory, refusing anything that could escape it.
///
/// # Errors
/// [`ServiceError::Protocol`] when no data directory is configured, or when
/// the path is absolute / contains `..` (or other non-plain) components.
fn resolve_load_path(data_dir: Option<&Path>, path: &str) -> Result<PathBuf, ServiceError> {
    let Some(root) = data_dir else {
        return Err(ServiceError::Protocol(
            "LOAD is disabled: the server was started without a data directory".into(),
        ));
    };
    let p = Path::new(path);
    let confined = !p.is_absolute()
        && p.components()
            .all(|c| matches!(c, Component::Normal(_) | Component::CurDir));
    if !confined {
        return Err(ServiceError::Protocol(format!(
            "LOAD path `{path}` must be relative to the data directory, without `..`"
        )));
    }
    Ok(root.join(p))
}

/// Append one outcome to the frame in `out`: what `ok` appends for the
/// verb, or the `ERR <code> …` line. The outcome is dropped here.
fn push<T>(out: &mut Vec<u8>, outcome: Result<T, ServiceError>, ok: impl FnOnce(&T, &mut Vec<u8>)) {
    match outcome {
        Ok(value) => ok(&value, out),
        Err(e) => push_lines(out, &[render_error(&e)]),
    }
}

/// [`push`] for the verbs whose response is a few rendered lines.
fn render<T>(
    out: &mut Vec<u8>,
    outcome: Result<T, ServiceError>,
    ok: impl FnOnce(&T) -> Vec<String>,
) {
    push(out, outcome, |value, out| push_lines(out, &ok(value)));
}

/// Serve one request: append its response frame (without the terminator) to
/// `out`, and say whether the server should stop accepting afterwards. The
/// request and whatever the service answered are consumed and dropped in
/// here, before the caller writes the frame: a closed-loop client sends its
/// next request as soon as it has read this one's response, and work left
/// for after the write would compete with serving it.
fn respond(shared: &Shared, request: Request, out: &mut Vec<u8>) -> bool {
    let service = &*shared.service;
    let shutdown = matches!(request, Request::Shutdown);
    match request {
        Request::Load { name, path } => {
            let outcome = resolve_load_path(shared.options.data_dir.as_deref(), &path)
                .and_then(|resolved| {
                    std::fs::read_to_string(&resolved)
                        .map_err(|e| ServiceError::Protocol(format!("cannot read `{path}`: {e}")))
                })
                .and_then(|text| service.load_str(&name, &text));
            render(out, outcome, render_load_response);
        }
        Request::Query {
            name,
            src,
            limits,
            count,
        } => {
            let outcome = match &count {
                Some(mode) => service.query_count(&name, &src, mode, limits),
                None => service.query(&name, &src, limits),
            };
            push(out, outcome, encode_query_response);
        }
        Request::Explain { name, src } => {
            render(out, service.explain(&name, &src), render_explain_response);
        }
        // A `?-` goal marker distinguishes a whole Datalog program from a
        // single conjunctive query (CQ syntax has no `?-`).
        Request::Analyze { name, src } if src.contains("?-") => render(
            out,
            service.analyze_datalog(&name, &src),
            render_analyze_program_response,
        ),
        Request::Analyze { name, src } => {
            render(out, service.analyze(&name, &src), render_analyze_response);
        }
        Request::Stats => push_lines(out, &render_stats_response(&service.stats())),
        Request::Drop { name } => render(out, service.drop_database(&name), |existed| {
            render_drop_response(&name, *existed)
        }),
        Request::Insert {
            name,
            relation,
            rows,
        } => render(
            out,
            service.insert_rows(&name, &relation, rows),
            render_mutation_response,
        ),
        Request::Delete {
            name,
            relation,
            rows,
        } => render(
            out,
            service.delete_rows(&name, &relation, rows),
            render_mutation_response,
        ),
        // Intercepted in `handle_connection` (the verb takes over the
        // connection); reaching here means a caller bypassed that path.
        Request::Subscribe { .. } => {
            let e = ServiceError::Protocol("SUBSCRIBE requires a dedicated connection".into());
            push_lines(out, &[render_error(&e)]);
        }
        Request::Persist => render(out, service.persist(), render_persist_response),
        // Graceful drain: block here until in-flight work finishes and the
        // final snapshot (if durable) lands, so `OK bye` really means the
        // state is sealed. A failed final snapshot is reported instead of
        // `OK bye` — the service is stopped either way.
        Request::Shutdown => render(out, service.drain(), |()| vec!["OK bye".to_string()]),
    }
    shutdown
}

/// Did this I/O error come from the socket timeout? (Unix reports
/// `WouldBlock`, Windows `TimedOut`.)
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(shared.options.read_timeout);
    let _ = stream.set_write_timeout(shared.options.write_timeout);
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    // The request line and the response frame, both reused across requests.
    let (mut line, mut out) = (Vec::new(), Vec::new());
    loop {
        line.clear();
        match reader
            .by_ref()
            .take(MAX_REQUEST_BYTES + 1)
            .read_until(b'\n', &mut line)
        {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                // Best-effort notice; the peer may be dead, in which case
                // the write fails too and we just close.
                let notice = [render_error(&ServiceError::RequestTimeout)];
                let _ = send_lines(&mut writer, &mut out, &notice);
                break;
            }
            Err(_) => break,
        }
        if line.len() as u64 > MAX_REQUEST_BYTES && !line.ends_with(b"\n") {
            // The rest of the line cannot be resynchronised: answer, close.
            let e =
                ServiceError::Protocol(format!("request line exceeds {MAX_REQUEST_BYTES} bytes"));
            let _ = send_lines(&mut writer, &mut out, &[render_error(&e)]);
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            break;
        };
        if text.trim().is_empty() {
            continue;
        }
        let shutdown = match parse_request(text) {
            Ok(Request::Subscribe { name, src }) => {
                stream_subscription(&mut reader, &mut writer, &mut out, shared, &name, &src);
                break;
            }
            Ok(request) => respond(shared, request, &mut out),
            Err(e) => {
                push_lines(&mut out, &[render_error(&e)]);
                false
            }
        };
        if send(&mut writer, &mut out).is_err() {
            break;
        }
        if shutdown {
            request_stop(shared);
            break;
        }
    }
}

/// Serve a `SUBSCRIBE` for the rest of the connection: write the initial
/// answer frame, then forward delta frames as maintenance passes push them,
/// polling the socket in between so any client input line (or EOF) ends the
/// subscription. Finishes with a best-effort `OK unsubscribed` frame.
fn stream_subscription(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    out: &mut Vec<u8>,
    shared: &Shared,
    name: &str,
    src: &str,
) {
    let sub = match shared.service.subscribe(name, src) {
        Ok(sub) => sub,
        Err(e) => {
            let _ = send_lines(writer, out, &[render_error(&e)]);
            return;
        }
    };
    if send_lines(writer, out, &render_subscribe_response(&sub)).is_ok() {
        // Alternate between the update channel (100 ms) and a short-timeout
        // peek at the socket. The connection is dedicated to this
        // subscription, so shortening the shared socket's read timeout
        // cannot race another request.
        let _ = reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_millis(25)));
        loop {
            match sub.updates.recv_timeout(Duration::from_millis(100)) {
                Ok(update) => {
                    let last = update.dropped;
                    let frame = render_delta_frame(sub.id, &update);
                    if send_lines(writer, out, &frame).is_err() || last {
                        break;
                    }
                }
                // Poll the socket: a read timeout means nothing arrived yet;
                // anything else — input, EOF, a real error — ends the stream.
                Err(mpsc::RecvTimeoutError::Timeout) => match reader.fill_buf() {
                    Err(e) if is_timeout(&e) => {}
                    _ => break,
                },
                // The service shut down or the view was dropped.
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    }
    shared.service.unsubscribe(sub.id);
    let _ = send_lines(writer, out, &[format!("OK unsubscribed {}", sub.id)]);
}

/// Client-side helper: send one request line and collect the response lines
/// up to (excluding) the terminator. Shared by `examples/repl.rs` and the
/// integration tests.
///
/// # Errors
/// I/O failures, or an unterminated response (connection closed early).
pub fn roundtrip(stream: &mut TcpStream, request: &str) -> io::Result<Vec<String>> {
    stream.write_all(request.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    read_response(&mut BufReader::new(stream.try_clone()?))
}

/// Read one framed response from `reader` (lines up to the `.` terminator).
///
/// # Errors
/// I/O failures, or EOF before the terminator.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Vec<String>> {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line == END {
            return Ok(lines);
        }
        lines.push(line.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_paths_are_confined_to_the_data_dir() {
        let root = Path::new("/srv/data");
        let ok = |p: &str| resolve_load_path(Some(root), p).unwrap();
        assert_eq!(ok("db/company.db"), root.join("db/company.db"));
        assert_eq!(ok("./company.db"), root.join("./company.db"));
        for escape in [
            "/etc/passwd",
            "../secrets.db",
            "db/../../secrets.db",
            "db/./../../x",
        ] {
            assert!(
                matches!(
                    resolve_load_path(Some(root), escape),
                    Err(ServiceError::Protocol(_))
                ),
                "must reject: {escape}"
            );
        }
    }

    /// No other test of this binary opens a connection, so the parked
    /// handlers and the spawn count are this test's own.
    #[test]
    fn a_finished_handler_serves_the_next_connection_lowest_number_first() {
        let start = || serve("127.0.0.1:0", Arc::new(QueryService::with_defaults())).unwrap();
        let connect = |server: &ServerHandle| {
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            let stats = roundtrip(&mut conn, "STATS").unwrap();
            assert!(stats[0].starts_with("OK"), "{stats:?}");
            conn
        };
        let parked_are = |want: &[u64]| {
            while parked().keys().copied().collect::<Vec<_>>() != want {
                std::thread::yield_now();
            }
        };

        // One connection after another, across two servers: one thread.
        let first = start();
        drop(connect(&first));
        parked_are(&[0]);
        drop(connect(&first));
        parked_are(&[0]);
        first.stop();
        let second = start();
        let a = connect(&second);
        parked_are(&[]);
        assert_eq!(HANDLERS_SPAWNED.load(Ordering::Relaxed), 1);

        // Two at once need a second thread. Whichever parks last, the next
        // connection goes to the lower number.
        let b = connect(&second);
        assert_eq!(HANDLERS_SPAWNED.load(Ordering::Relaxed), 2);
        drop(a);
        parked_are(&[0]);
        drop(b);
        parked_are(&[0, 1]);
        let c = connect(&second);
        parked_are(&[1]);
        drop(c);
        second.stop();
    }

    #[test]
    fn load_is_disabled_without_a_data_dir() {
        assert!(matches!(
            resolve_load_path(None, "company.db"),
            Err(ServiceError::Protocol(_))
        ));
    }
}
