//! The TCP side: a pinned service configuration, `pq_service::serve` on an
//! ephemeral loopback port in this process, and a client that reduces each
//! framed response to a header and an [`Answer`] while it reads.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use pq_core::PlannerOptions;
use pq_service::{serve, DurabilityConfig, FsyncPolicy, QueryService, ServerHandle, ServiceConfig};

use crate::check::Answer;

/// Client connections, one thread each. The build box has two cores; the
/// benchmark never runs more client threads than that.
pub const CLIENTS: usize = 2;

/// Default plan- and result-cache capacities of the service.
pub const DEFAULT_CACHES: (usize, usize) = (256, 1024);

/// The service configuration under test. Everything the defaults would read
/// from the machine (`available_parallelism`, `PQ_EXEC_THREADS`) is pinned,
/// so the same program runs on every box: two workers, serial evaluation,
/// the default queue depth and shard count, and the cache capacities the
/// workload states. A durable service never fsyncs and snapshots every 256
/// appends (the `serve` example's cadence); the flush policy is part of the
/// workload and must be the same on both sides of any comparison.
pub fn service_config(caches: (usize, usize), wal_dir: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        workers: CLIENTS,
        intra_query_threads: 1,
        plan_cache_capacity: caches.0,
        result_cache_capacity: caches.1,
        planner: planner_options(),
        durability: wal_dir.map(|dir| DurabilityConfig {
            dir,
            fsync: FsyncPolicy::Never,
            snapshot_every: 256,
        }),
        ..ServiceConfig::default()
    }
}

/// Planner options with the parallelism degree pinned to one.
pub fn planner_options() -> PlannerOptions {
    PlannerOptions {
        max_parallelism: 1,
        ..PlannerOptions::default()
    }
}

/// A service listening on loopback, in this process.
pub struct Served {
    pub svc: Arc<QueryService>,
    handle: ServerHandle,
}

impl Served {
    pub fn start(svc: Arc<QueryService>) -> Served {
        let handle = serve("127.0.0.1:0", Arc::clone(&svc)).expect("bind a loopback port");
        Served { svc, handle }
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// Stop the service and the accept loop. Not a drain: a durable service
    /// takes no final snapshot, so what is on disk is what a crash leaves.
    pub fn stop(self) {
        self.handle.stop();
    }
}

/// What one response came to.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Count and checksum of the body lines.
    pub answer: Answer,
    /// Bytes received, header and terminator included.
    pub bytes: u64,
}

pub struct Client {
    reader: BufReader<TcpStream>,
    header: String,
    line: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::with_capacity(64 * 1024, stream),
            header: String::new(),
            line: Vec::new(),
        })
    }

    /// Send one request line and read its framed response to the `.` line.
    pub fn request(&mut self, request: &str) -> io::Result<Reply> {
        let mut out = Vec::with_capacity(request.len() + 1);
        out.extend_from_slice(request.as_bytes());
        out.push(b'\n');
        self.reader.get_mut().write_all(&out)?;

        self.header.clear();
        let mut bytes = self.reader.read_line(&mut self.header)? as u64;
        if bytes == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.header.truncate(self.header.trim_end().len());
        let mut answer = Answer::EMPTY;
        loop {
            self.line.clear();
            let n = self.reader.read_until(b'\n', &mut self.line)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            bytes += n as u64;
            let line = self.line.strip_suffix(b"\n").unwrap_or(&self.line);
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if line == b"." {
                return Ok(Reply { answer, bytes });
            }
            answer.push_line(line);
        }
    }

    /// The first line of the last response.
    pub fn header(&self) -> &str {
        &self.header
    }

    /// The `n`-th whitespace-separated token of the last header as a number:
    /// token 1 of `OK <rows> <attrs> # …`, token 2 of `OK inserted <applied> …`.
    pub fn header_number(&self, n: usize) -> Option<u64> {
        let mut tokens = self.header.split_whitespace();
        (tokens.next() == Some("OK")).then_some(())?;
        tokens.nth(n - 1)?.parse().ok()
    }
}
