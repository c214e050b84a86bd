//! Set-up, the closed-loop measured section, and tear-down of a service
//! workload.
//!
//! Load shape: a closed loop of [`CLIENTS`] connections, one thread each;
//! every client sends its next request when the previous reply has been read
//! and checked. This is the shape of the system's callers (the REPL, an
//! embedding application), and on a two-core box an open-loop generator
//! would compete with the server it measures.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pq_data::Database;
use pq_service::{QueryService, Subscription};

use crate::gen::{dataset, SERVICE};
use crate::wire::{service_config, Client, Served, CLIENTS};
use crate::workloads::{Class, Expect, Op, Script, Workload, DB};

/// Scratch space inside the checkout (the benchmark writes nowhere else),
/// one numbered directory per durable service; removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<usize>,
}

impl Scratch {
    pub fn new() -> Scratch {
        let root = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
        fs::create_dir_all(&root).expect("create scratch directory in the checkout");
        Scratch {
            root,
            next: std::cell::Cell::new(0),
        }
    }

    pub fn fresh_dir(&self) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(n.to_string())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
        // Gone only when no other benchmark process is using it.
        let _ = fs::remove_dir(".bench_tmp");
    }
}

/// Copy the files of `from` into a new directory `to` (a WAL directory is
/// flat).
pub fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create copy directory");
    for entry in fs::read_dir(from).expect("read WAL directory") {
        let entry = entry.expect("read WAL directory entry");
        fs::copy(entry.path(), to.join(entry.file_name())).expect("copy WAL file");
    }
}

/// A service holding the workload's dataset, its view registered.
pub struct Loaded {
    pub svc: Arc<QueryService>,
    pub subscription: Option<Subscription>,
    /// WAL directory of a durable service.
    pub dir: Option<PathBuf>,
}

pub fn load(db: Database, w: &dyn Workload, scratch: &Scratch) -> Loaded {
    let dir = w.durable().then(|| scratch.fresh_dir());
    let svc =
        QueryService::try_new(service_config(w.caches(), dir.clone())).expect("start the service");
    svc.load_database(DB, db).expect("load the dataset");
    let subscription = w
        .view()
        .map(|text| svc.subscribe(DB, text).expect("register the view"));
    Loaded {
        svc: Arc::new(svc),
        subscription,
        dir,
    }
}

/// Set up repeatedly, keeping the last: three times at least, and on until a
/// tenth of the run's `seconds` has gone by, so that the median of a set-up
/// that takes milliseconds is as steady as that of one that takes a second.
/// Returns what the last set-up made and the seconds each one took.
pub fn set_up_repeatedly<T>(
    seconds: f64,
    mut set_up: impl FnMut() -> T,
    mut tear_down: impl FnMut(T),
) -> (T, Vec<f64>) {
    let budget = Duration::from_secs_f64(seconds / 10.0);
    let begun = Instant::now();
    let mut took = Vec::new();
    loop {
        let t = Instant::now();
        let made = set_up();
        took.push(t.elapsed().as_secs_f64());
        if took.len() >= 3 && begun.elapsed() >= budget {
            return (made, took);
        }
        tear_down(made);
    }
}

/// A workload ready to measure.
pub struct Instance {
    pub served: Served,
    pub clients: Vec<Client>,
    pub subscription: Option<Subscription>,
    pub dir: Option<PathBuf>,
}

/// Everything `setup_s` covers: generate the dataset, start the service
/// (opening the WAL when durable), load, register the view, listen, connect,
/// and send the warm-up requests on every connection.
pub fn set_up(seed: u64, w: &dyn Workload, scratch: &Scratch) -> Instance {
    let loaded = load(dataset(seed, &SERVICE), w, scratch);
    let served = Served::start(loaded.svc);
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(served.addr()).expect("connect to the service"))
        .collect();
    let warmup = w.warmup();
    for client in &mut clients {
        for request in &warmup {
            client.request(request).expect("warm-up request");
            assert!(
                client.header().starts_with("OK"),
                "warm-up `{request}` answered `{}`",
                client.header()
            );
        }
    }
    Instance {
        served,
        clients,
        subscription: loaded.subscription,
        dir: loaded.dir,
    }
}

impl Instance {
    /// Close the connections and stop the service. Returns the WAL
    /// directory, left as a crash would leave it.
    pub fn tear_down(self) -> Option<PathBuf> {
        drop(self.clients);
        self.served.stop();
        self.dir
    }
}

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Sample {
    pub fn millis(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// What one client did.
#[derive(Default)]
pub struct Log {
    pub samples: Vec<Sample>,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    pub response_bytes: Vec<u64>,
    pub rows_out: u64,
}

impl Log {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 3 {
            self.failures.push(what);
        }
    }
}

pub fn nanos_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).expect("a run is shorter than 584 years")
}

/// Send `op`, read the reply and judge it. An error, a refusal
/// (`overloaded`, `resource-exhausted`) and a wrong answer all count as one
/// failed operation.
pub fn perform(client: &mut Client, op: &Op, origin: Instant, log: &mut Log) {
    let start_ns = nanos_since(origin);
    let reply = client.request(&op.request);
    let end_ns = nanos_since(origin);
    log.samples.push(Sample {
        class: op.class,
        start_ns,
        end_ns,
    });
    let reply = match reply {
        Ok(r) => r,
        Err(e) => return log.fail(format!("`{}`: {e}", op.request)),
    };
    log.response_bytes.push(reply.bytes);
    log.rows_out += reply.answer.rows;
    let ok = client.header().starts_with("OK")
        && match &op.expect {
            Expect::Rows(a) => client.header_number(1) == Some(a.rows) && reply.answer == *a,
            Expect::OneOf(allowed) => {
                client.header_number(1) == Some(reply.answer.rows)
                    && allowed.contains(&reply.answer)
            }
            Expect::Applied => client.header_number(2) == Some(1),
        };
    if !ok {
        log.fail(format!(
            "`{}` answered `{}` with {} rows, checksum {:016x}",
            op.request,
            client.header(),
            reply.answer.rows,
            reply.answer.sum
        ));
    }
}

/// How far past its nominal length a measured stretch may run before it is
/// cut short at the next lap boundary. The stretch is a fixed operation
/// sequence, so its length follows the box's speed; the driver's time for
/// all runs together is fixed, and the box has phases in which everything
/// takes twice as long. A stretch that was cut says so, and its counters
/// are those of fewer laps. A traced run is never cut (there are few of
/// them), so the counters it reports are always those of the whole sequence.
pub const OVERRUN: f64 = 1.3;

/// The time after which a measured stretch of `nominal_seconds` is cut.
pub fn overrun_limit(nominal_seconds: f64, traced: bool) -> Duration {
    if traced {
        Duration::MAX
    } else {
        Duration::from_secs_f64(OVERRUN * nominal_seconds)
    }
}

/// A stretch of the closed loop: `laps` laps of `lap_ops` operations a
/// client — counts, not a duration, so that a seed fixes the whole sequence
/// and every counter with it — unless `limit` passes first.
#[derive(Debug, Clone, Copy)]
pub struct Stretch {
    pub laps: usize,
    pub lap_ops: usize,
    pub limit: Duration,
}

/// Run the closed loop: client `i` plays the next operations of
/// `scripts[i]`, as `stretch` says. `each` runs on the client's thread after
/// every operation (the traced stretch hooks in there; the measured stretch
/// passes a no-op).
pub fn drive<F>(
    clients: &mut [Client],
    scripts: &mut [Box<dyn Script>],
    stretch: Stretch,
    origin: Instant,
    each: F,
) -> Vec<Log>
where
    F: Fn(usize, u64, &Op) + Sync,
{
    let start = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(scripts)
            .enumerate()
            .map(|(i, (client, script))| {
                let (start, each) = (&start, &each);
                scope.spawn(move || {
                    let mut log = Log::default();
                    start.wait();
                    let begun = Instant::now();
                    for lap in 0..stretch.laps {
                        if lap > 0 && begun.elapsed() > stretch.limit {
                            break;
                        }
                        for n in lap * stretch.lap_ops..(lap + 1) * stretch.lap_ops {
                            let op = script.next_op();
                            perform(client, &op, origin, &mut log);
                            each(i, n as u64, &op);
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}
