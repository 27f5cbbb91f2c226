//! Serving the wire protocol: request dispatch on a [`FabricHandle`], an
//! in-process transport, a `std::net::TcpListener` front end, and the
//! [`FabricClient`] that speaks both.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use lfi_explore::ExplorationStore;

use crate::fabric::FabricHandle;
use crate::job::{JobEvent, JobId, JobSnapshot, JobSpec, JobState};
use crate::wire::{Request, Response, WireError};

impl FabricHandle {
    /// Dispatches one parsed request against this fabric.
    ///
    /// ```
    /// use lfi_fabric::{Fabric, Request, Response};
    ///
    /// let fabric = Fabric::builder().workers(0).build();
    /// assert_eq!(fabric.handle().handle_request(Request::Ping), Response::Pong);
    /// ```
    pub fn handle_request(&self, request: Request) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Jobs => {
                Response::Jobs { jobs: self.jobs().into_iter().map(|job| (job.id, job.name, job.state)).collect() }
            }
            Request::Submit { spec } => match self.submit(spec) {
                Ok(job) => Response::Submitted { job },
                Err(error) => Response::Error { message: error.to_string() },
            },
            Request::Status { job } => match self.status(job) {
                Some(snapshot) => Response::Status { snapshot },
                None => Response::Error { message: format!("no job with id {job}") },
            },
            Request::Events { job, after, max } => match self.events(job, after, max.min(1024)) {
                Some((next, events)) => Response::Events { job, next, events },
                None => Response::Error { message: format!("no job with id {job}") },
            },
            Request::Cancel { job } => match self.cancel(job) {
                Some(state) => Response::StateChanged { job, state },
                None => Response::Error { message: format!("no job with id {job}") },
            },
            Request::Pause { job } => match self.pause(job) {
                Some(state) => Response::StateChanged { job, state },
                None => Response::Error { message: format!("no job with id {job}") },
            },
            Request::Resume { job } => match self.resume(job) {
                Some(state) => Response::StateChanged { job, state },
                None => Response::Error { message: format!("no job with id {job}") },
            },
            Request::Checkpoint { job } => match self.checkpoint(job) {
                Some(store) => Response::Checkpoint { job, store_xml: store.to_xml() },
                None => Response::Error { message: format!("no job with id {job}") },
            },
            Request::Drain => {
                self.begin_drain();
                Response::Draining
            }
        }
    }

    /// Parses one request line and renders the response line — the whole
    /// server side of the protocol in one call.  A malformed line becomes
    /// an `error` response, never a dropped connection.
    pub(crate) fn handle_line(&self, line: &str) -> String {
        match Request::parse(line.trim_end()) {
            Ok(request) => self.handle_request(request),
            Err(error) => Response::Error { message: error.to_string() },
        }
        .encode()
    }

    /// Connects an in-process client: each request runs through the
    /// server's line handler on the caller's thread, so it crosses
    /// the same encoder and parser as a TCP request, with no socket.
    ///
    /// ```
    /// use lfi_fabric::Fabric;
    ///
    /// let fabric = Fabric::builder().workers(0).build();
    /// let mut client = fabric.handle().connect();
    /// client.ping().unwrap();
    /// ```
    pub fn connect(&self) -> FabricClient {
        FabricClient { transport: Transport::InProcess(self.clone()) }
    }

    /// Serves the protocol over TCP: one accept loop thread, one thread
    /// per connection, newline-delimited requests until the peer closes.
    /// Each line but a blank one gets one response line (`error` if it is
    /// no request, or not UTF-8).  At most [`MAX_CONNECTIONS`] peers are
    /// served at once; one more gets a single `error` line and its
    /// connection closes.  Returns a guard that, when dropped, stops the
    /// accept loop and shuts down every open connection.
    ///
    /// ```no_run
    /// use lfi_fabric::{Fabric, FabricClient};
    ///
    /// let fabric = Fabric::builder().build();
    /// let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    /// let guard = fabric.handle().serve_tcp(listener)?;
    /// let mut client = FabricClient::tcp(guard.addr()).expect("connects");
    /// client.ping().expect("server answers");
    /// # Ok::<(), std::io::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<ServerGuard> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<Connection>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_stop = Arc::clone(&stop);
        let accept_connections = Arc::clone(&connections);
        let handle = self.clone();
        let acceptor = std::thread::Builder::new()
            .name("lfi-fabric-accept".into())
            .spawn(move || {
                // `accept` blocks; `ServerGuard::stop` wakes it with a
                // connection of its own, which is dropped here unserved.
                loop {
                    let accepted = listener.accept();
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    match accepted {
                        Ok((mut stream, _)) => {
                            let mut guard =
                                accept_connections.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                            // Connections whose peers have closed are done;
                            // forget them so the list tracks live ones only.
                            guard.retain(|connection| !connection.worker.is_finished());
                            if guard.len() >= MAX_CONNECTIONS {
                                let message = format!("the server already serves {MAX_CONNECTIONS} connections");
                                let _ = writeln!(stream, "{}", Response::Error { message }.encode());
                                let _ = stream.shutdown(std::net::Shutdown::Write);
                                continue;
                            }
                            let handle = handle.clone();
                            // A connection whose stream cannot be cloned or
                            // whose thread fails to spawn drops its stream,
                            // so that peer sees the connection close while
                            // the acceptor keeps serving.
                            let Ok(peer) = stream.try_clone() else { continue };
                            let Ok(worker) = std::thread::Builder::new()
                                .name("lfi-fabric-conn".into())
                                .spawn(move || serve_connection(&handle, stream))
                            else {
                                continue;
                            };
                            guard.push(Connection { peer, worker });
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("accept thread spawns");
        Ok(ServerGuard { addr, stop, acceptor: Some(acceptor), connections })
    }
}

/// The longest request line a TCP peer may send, newline excluded.  A peer
/// that goes over it gets an `error` response and the connection closes,
/// so no connection makes the server buffer without bound.  The largest
/// request the repository sends — an exhaustive libc `submit` with its plan
/// escaped — is well under a tenth of this.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The most TCP peers [`FabricHandle::serve_tcp`] serves at once, each on
/// its own thread.  A peer over it gets one `error` line and its
/// connection closes, so no flood of connections makes the server spawn
/// threads without bound; a slot frees when a served peer closes.
pub const MAX_CONNECTIONS: usize = 32;

/// How long a served TCP peer may send nothing before its connection
/// closes, as at the end of its stream, so that idle peers cannot hold
/// every one of the [`MAX_CONNECTIONS`] slots for good.  Minutes, far over
/// any pause of a peer that polls.
#[cfg(not(test))]
const IDLE_TIMEOUT: Duration = Duration::from_secs(300);
#[cfg(test)]
const IDLE_TIMEOUT: Duration = Duration::from_secs(3);

/// One TCP connection: newline-delimited requests answered in order, until
/// the peer closes or sends nothing for [`IDLE_TIMEOUT`].
fn serve_connection(handle: &FabricHandle, stream: TcpStream) {
    if stream.set_read_timeout(Some(IDLE_TIMEOUT)).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        match reader.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        }
        if line.len() > MAX_LINE_BYTES {
            let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            let _ = writeln!(writer, "{}", Response::Error { message }.encode());
            // Close gracefully: send FIN after the response, then discard a
            // bounded tail for a moment, because closing a socket with
            // unread input resets it and may cost the peer the response.
            let _ = writer.shutdown(std::net::Shutdown::Write);
            let _ = writer.set_read_timeout(Some(Duration::from_millis(200)));
            let _ = std::io::copy(&mut reader.take(MAX_LINE_BYTES as u64), &mut std::io::sink());
            break;
        }
        let response = match std::str::from_utf8(&line) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => handle.handle_line(line),
            Err(_) => Response::Error { message: "request line is not UTF-8".into() }.encode(),
        };
        if writer.write_all(response.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
            break;
        }
        let _ = writer.flush();
    }
    // The guard holds a clone of the stream, so dropping ours leaves it
    // open: shut it down, or a peer that half-closed never sees the end.
    let _ = writer.shutdown(std::net::Shutdown::Both);
}

/// One served TCP connection: a handle on its stream, to shut it down from
/// outside, and the thread that answers it.
struct Connection {
    peer: TcpStream,
    worker: JoinHandle<()>,
}

/// Keeps a [`FabricHandle::serve_tcp`] accept loop alive; dropping it
/// stops accepting, shuts down every open connection (a peer that is
/// still connected sees its connection close) and joins the server
/// threads.
///
/// ```no_run
/// use lfi_fabric::Fabric;
///
/// let fabric = Fabric::builder().build();
/// let guard = fabric.handle().serve_tcp(std::net::TcpListener::bind("127.0.0.1:0")?)?;
/// println!("serving on {}", guard.addr());
/// drop(guard); // stops accepting, closes connections, joins the threads
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct ServerGuard {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<Connection>>>,
}

impl ServerGuard {
    /// The address the server is listening on (useful with port 0, where
    /// the OS picks the port and this is the only way to learn it).
    ///
    /// ```no_run
    /// # let fabric = lfi_fabric::Fabric::builder().build();
    /// # let guard = fabric.handle().serve_tcp(std::net::TcpListener::bind("127.0.0.1:0")?)?;
    /// let mut client = lfi_fabric::FabricClient::tcp(guard.addr()).expect("connects");
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop (idempotent; also done on drop).  The loop
    /// blocks in `accept`, so this wakes it with one connection to the
    /// server's own port (over loopback when the listener is bound to an
    /// unspecified address), which the loop drops unserved.
    ///
    /// ```no_run
    /// # let fabric = lfi_fabric::Fabric::builder().build();
    /// # let guard = fabric.handle().serve_tcp(std::net::TcpListener::bind("127.0.0.1:0")?)?;
    /// guard.stop(); // new connections now refused; drop() joins the threads
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() { Ipv4Addr::LOCALHOST.into() } else { Ipv6Addr::LOCALHOST.into() });
        }
        // Refused once the loop has exited and dropped the listener.
        let _ = TcpStream::connect(wake);
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.stop();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let connections =
            std::mem::take(&mut *self.connections.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
        for connection in connections {
            // Unblocks the connection thread's read, which then sees the
            // end of the stream and returns.
            let _ = connection.peer.shutdown(std::net::Shutdown::Both);
            let _ = connection.worker.join();
        }
    }
}

impl std::fmt::Debug for ServerGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerGuard").field("addr", &self.addr).finish()
    }
}

enum Transport {
    InProcess(FabricHandle),
    Tcp {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
}

/// A typed client for the wire protocol, over either transport.
///
/// An in-process client exercises the full protocol without a socket (an
/// inert `workers(0)` fabric keeps the job deterministically queued):
///
/// ```
/// use lfi_controller::FnWorkload;
/// use lfi_fabric::{Fabric, JobSpec, JobState};
/// use lfi_runtime::{ExitStatus, Process};
/// use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
///
/// let fabric = Fabric::builder()
///     .workers(0)
///     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
///     .build();
/// let plan = Plan::new().entry(PlanEntry {
///     function: "read".into(),
///     trigger: Trigger::on_call(1),
///     action: FaultAction::return_value(-1).with_errno(5),
/// });
///
/// let mut client = fabric.handle().connect();
/// let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
/// assert_eq!(client.status(job).unwrap().state, JobState::Queued);
/// ```
pub struct FabricClient {
    transport: Transport,
}

impl FabricClient {
    /// Connects over TCP.
    ///
    /// ```no_run
    /// # let fabric = lfi_fabric::Fabric::builder().build();
    /// # let guard = fabric.handle().serve_tcp(std::net::TcpListener::bind("127.0.0.1:0")?)?;
    /// let mut client = lfi_fabric::FabricClient::tcp(guard.addr())?;
    /// client.ping().expect("server answers");
    /// # Ok::<(), std::io::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn tcp(addr: SocketAddr) -> std::io::Result<FabricClient> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(FabricClient { transport: Transport::Tcp { reader, writer: stream } })
    }

    /// Sends one request and parses the response.  The typed wrappers
    /// below cover every verb; reach for this when driving the protocol
    /// generically.
    ///
    /// ```
    /// use lfi_fabric::{Fabric, Request, Response};
    ///
    /// let fabric = Fabric::builder().workers(0).build();
    /// let mut client = fabric.handle().connect();
    /// assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError::Transport`] when the connection drops,
    /// [`WireError::Malformed`] when the peer breaks the protocol.
    pub fn request(&mut self, request: &Request) -> Result<Response, WireError> {
        let line = request.encode();
        let reply = match &mut self.transport {
            Transport::InProcess(handle) => handle.handle_line(&line),
            Transport::Tcp { reader, writer } => {
                writer
                    .write_all(format!("{line}\n").as_bytes())
                    .map_err(|error| WireError::Transport { message: error.to_string() })?;
                let mut reply = String::new();
                let read = reader
                    .read_line(&mut reply)
                    .map_err(|error| WireError::Transport { message: error.to_string() })?;
                if read == 0 {
                    return Err(WireError::Transport { message: "connection closed".into() });
                }
                reply
            }
        };
        Response::parse(reply.trim_end())
    }

    fn expect_error<T>(response: Response) -> Result<T, WireError> {
        match response {
            Response::Error { message } => Err(WireError::Malformed { message }),
            other => Err(WireError::malformed(format!("unexpected response {other:?}"))),
        }
    }

    /// `ping` → `pong`.
    ///
    /// ```
    /// let fabric = lfi_fabric::Fabric::builder().workers(0).build();
    /// fabric.handle().connect().ping().unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unexpected response.
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Self::expect_error(other),
        }
    }

    /// Submits a job and returns its id.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// assert!(client.submit(JobSpec::new("typo", "nope", Plan::new())).is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or a server-side error (e.g. an
    /// unknown workload name).
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, WireError> {
        match self.request(&Request::Submit { spec })? {
            Response::Submitted { job } => Ok(job),
            other => Self::expect_error(other),
        }
    }

    /// Lists every job as `(id, name, state)`.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// # let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// let jobs = client.jobs().unwrap();
    /// assert_eq!(jobs.len(), 1);
    /// assert_eq!(jobs[0].1, "smoke");
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unexpected response.
    pub fn jobs(&mut self) -> Result<Vec<(JobId, String, JobState)>, WireError> {
        match self.request(&Request::Jobs)? {
            Response::Jobs { jobs } => Ok(jobs),
            other => Self::expect_error(other),
        }
    }

    /// Snapshots one job.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// # let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// let snapshot = client.status(job).unwrap();
    /// assert_eq!(snapshot.cases, 1);
    /// assert_eq!(snapshot.progress.finished, 0);
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unknown job.
    pub fn status(&mut self, job: JobId) -> Result<JobSnapshot, WireError> {
        match self.request(&Request::Status { job })? {
            Response::Status { snapshot } => Ok(snapshot),
            other => Self::expect_error(other),
        }
    }

    /// Polls a job's event stream from the `after` cursor; returns the
    /// next cursor and the events.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// # let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// let (next, events) = client.events(job, 0, 64).unwrap();
    /// assert_eq!(next, events.len() as u64); // resume the poll from here
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unknown job.
    pub fn events(&mut self, job: JobId, after: u64, max: usize) -> Result<(u64, Vec<JobEvent>), WireError> {
        match self.request(&Request::Events { job, after, max })? {
            Response::Events { next, events, .. } => Ok((next, events)),
            other => Self::expect_error(other),
        }
    }

    /// Cancels a job; returns its state after the request.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// # use lfi_fabric::JobState;
    /// # let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// assert_eq!(client.cancel(job).unwrap(), JobState::Cancelled);
    /// assert_eq!(client.cancel(job).unwrap(), JobState::Cancelled); // idempotent
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unknown job.
    pub fn cancel(&mut self, job: JobId) -> Result<JobState, WireError> {
        match self.request(&Request::Cancel { job })? {
            Response::StateChanged { state, .. } => Ok(state),
            other => Self::expect_error(other),
        }
    }

    /// Pauses a job; returns its state after the request.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// # use lfi_fabric::JobState;
    /// # let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// assert_eq!(client.pause(job).unwrap(), JobState::Paused);
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unknown job.
    pub fn pause(&mut self, job: JobId) -> Result<JobState, WireError> {
        match self.request(&Request::Pause { job })? {
            Response::StateChanged { state, .. } => Ok(state),
            other => Self::expect_error(other),
        }
    }

    /// Resumes a job; returns its state after the request.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// # use lfi_fabric::JobState;
    /// # let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// client.pause(job).unwrap();
    /// assert_eq!(client.resume(job).unwrap(), JobState::Running);
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unknown job.
    pub fn resume(&mut self, job: JobId) -> Result<JobState, WireError> {
        match self.request(&Request::Resume { job })? {
            Response::StateChanged { state, .. } => Ok(state),
            other => Self::expect_error(other),
        }
    }

    /// Fetches a job's crash-safe checkpoint.
    ///
    /// ```
    /// # use lfi_controller::FnWorkload;
    /// # use lfi_fabric::{Fabric, JobSpec};
    /// # use lfi_runtime::{ExitStatus, Process};
    /// # use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
    /// # let fabric = Fabric::builder()
    /// #     .workers(0) // inert fleet: the job stays queued, deterministically
    /// #     .register(FnWorkload::new("noop", Process::new, |_: &mut Process| ExitStatus::Exited(0)))
    /// #     .build();
    /// # let plan = Plan::new().entry(PlanEntry {
    /// #     function: "read".into(),
    /// #     trigger: Trigger::on_call(1),
    /// #     action: FaultAction::return_value(-1).with_errno(5),
    /// # });
    /// # let mut client = fabric.handle().connect();
    /// # let job = client.submit(JobSpec::new("smoke", "noop", plan)).unwrap();
    /// let store = client.checkpoint(job).unwrap();
    /// assert_eq!(store.frontier.len(), 1); // the untouched cell survives the trip
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure, an unknown job, or a store
    /// document that does not parse.
    pub fn checkpoint(&mut self, job: JobId) -> Result<ExplorationStore, WireError> {
        match self.request(&Request::Checkpoint { job })? {
            Response::Checkpoint { store_xml, .. } => ExplorationStore::from_xml(&store_xml)
                .map_err(|error| WireError::malformed(format!("checkpoint is not store XML: {error}"))),
            other => Self::expect_error(other),
        }
    }

    /// Asks the fabric to drain.
    ///
    /// ```
    /// let fabric = lfi_fabric::Fabric::builder().workers(0).build();
    /// fabric.handle().connect().drain().unwrap();
    /// assert!(fabric.handle().is_draining());
    /// ```
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an unexpected response.
    pub fn drain(&mut self) -> Result<(), WireError> {
        match self.request(&Request::Drain)? {
            Response::Draining => Ok(()),
            other => Self::expect_error(other),
        }
    }
}

impl std::fmt::Debug for FabricClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let transport = match &self.transport {
            Transport::InProcess(_) => "in-process",
            Transport::Tcp { .. } => "tcp",
        };
        f.debug_struct("FabricClient").field("transport", &transport).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fabric;
    use proptest::prelude::*;
    use std::time::Instant;

    #[test]
    fn a_line_gets_one_response_line() {
        let fabric = Fabric::builder().workers(0).build();
        assert_eq!(fabric.handle().handle_line("ping\n"), "pong");
        assert!(fabric.handle().handle_line("warp").starts_with("error message="));
    }

    #[test]
    fn closed_connections_do_not_accumulate_handles() {
        let fabric = Fabric::builder().workers(0).build();
        let guard = fabric.handle().serve_tcp(TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
        for _ in 0..64 {
            let mut client = FabricClient::tcp(guard.addr()).unwrap();
            client.ping().unwrap();
        }
        // Each accept prunes the connections whose peers have closed, so
        // only the last few can still be listed.
        let live = guard.connections.lock().unwrap().len();
        assert!(live <= 8, "{live} connection handles kept after 64 sequential connections");
    }

    #[test]
    fn a_peer_over_the_connection_cap_is_refused_until_a_served_one_closes() {
        let fabric = Fabric::builder().workers(0).build();
        let guard = fabric.handle().serve_tcp(TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
        // A ping answered means the acceptor has registered the connection.
        let mut served: Vec<FabricClient> = (0..MAX_CONNECTIONS)
            .map(|_| {
                let mut client = FabricClient::tcp(guard.addr()).unwrap();
                client.ping().unwrap();
                client
            })
            .collect();
        let refused = TcpStream::connect(guard.addr()).unwrap();
        // Served, the peer would wait for a request: bound the read so the
        // test fails instead of hanging.
        refused.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(refused);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("error message="), "{line:?}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "then the connection closes");
        // Every served peer speaks again, so none can time out as idle
        // before `fresh + IDLE_TIMEOUT`.
        let fresh = Instant::now();
        served
            .iter_mut()
            .for_each(|client| client.ping().expect("every served peer is still served"));

        // Closing a served peer frees its slot once its thread has seen the
        // close, well before any idle timeout could free one.
        drop(served.pop());
        loop {
            let answered = FabricClient::tcp(guard.addr()).unwrap().ping().is_ok();
            assert!(fresh.elapsed() < IDLE_TIMEOUT, "the closed peer's slot did not free before the idle timeout");
            if answered {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn idle_peers_time_out_and_free_their_slots() {
        let fabric = Fabric::builder().workers(0).build();
        let guard = fabric.handle().serve_tcp(TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
        // Every slot goes to a peer that pings once and then sends nothing.
        let mut idle: Vec<FabricClient> = (0..MAX_CONNECTIONS)
            .map(|_| {
                let mut client = FabricClient::tcp(guard.addr()).unwrap();
                client.ping().unwrap();
                client
            })
            .collect();
        assert!(FabricClient::tcp(guard.addr()).unwrap().ping().is_err(), "every slot is taken");
        // Once the idle timeout passes, a new peer is served.
        let started = Instant::now();
        std::thread::sleep(IDLE_TIMEOUT);
        loop {
            if FabricClient::tcp(guard.addr()).unwrap().ping().is_ok() {
                break;
            }
            assert!(started.elapsed() < IDLE_TIMEOUT + Duration::from_secs(10), "idle peers kept every slot");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(idle[0].ping().is_err(), "the idle peer's connection closed");
    }

    /// Request verbs, field keys and escape fragments the parser branches
    /// on, to splice between arbitrary characters.
    const TOKENS: &[&str] = &[
        "ping",
        "jobs",
        "submit",
        "status",
        "events",
        "cancel",
        "pause",
        "resume",
        "checkpoint",
        "drain",
        " ",
        "job=",
        "after=",
        "max=",
        "plan=",
        "name=",
        "workload=",
        "weight=",
        "lease-batch=",
        "max-cases=",
        "halt-on-crash=true",
        "=",
        "%",
        "%0",
        "%zz",
        "%25",
        "\n",
        "\r",
    ];

    fn fragment() -> impl Strategy<Value = String> {
        prop_oneof![
            (0..TOKENS.len()).prop_map(|index| TOKENS[index].to_owned()),
            "[\u{0}-\u{7f}]{0,8}",
            "[\u{80}-\u{3000}]{0,4}",
            "[0-9]{15,40}",
            (0usize..4, 1000usize..20_000).prop_map(|(index, len)| ["a", "9", "%", "\u{0}"][index].repeat(len)),
        ]
    }

    /// A request line's raw bytes, newline excluded: parser tokens spliced
    /// with arbitrary bytes, invalid UTF-8 and blank lines included.
    fn byte_line() -> impl Strategy<Value = Vec<u8>> {
        let part = prop_oneof![fragment().prop_map(String::into_bytes), prop::collection::vec(0u8..=255, 0..16)];
        prop::collection::vec(part, 0..6)
            .prop_map(|parts| parts.concat().into_iter().filter(|&byte| byte != b'\n').collect())
    }

    /// How many response lines the server owes for `lines`: one for each
    /// line but a blank one.
    fn answered(lines: &[Vec<u8>]) -> usize {
        lines
            .iter()
            .filter(|line| std::str::from_utf8(line).map_or(true, |text| !text.trim().is_empty()))
            .count()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever bytes a TCP peer sends, every request line gets exactly
        /// one response line, in order, and the server never panics.  A line
        /// over [`MAX_LINE_BYTES`] (inserted at `oversized_at` when that
        /// falls among the lines) gets an `error` line, and then the
        /// connection closes without answering what followed it.
        #[test]
        fn any_byte_lines_over_tcp_get_one_response_line_each(
            lines in prop::collection::vec(byte_line(), 0..8),
            oversized_at in 0usize..16,
        ) {
            let fabric = Fabric::builder().workers(0).build();
            let guard = fabric.handle().serve_tcp(TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
            let mut stream = TcpStream::connect(guard.addr()).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let cut = oversized_at.min(lines.len());
            let mut sent: Vec<u8> = lines[..cut].iter().flat_map(|line| line.iter().chain(b"\n")).copied().collect();
            if cut < lines.len() {
                sent.extend(std::iter::repeat_n(b'a', MAX_LINE_BYTES + 1).chain(*b"\n"));
                sent.extend(lines[cut..].iter().flat_map(|line| line.iter().chain(b"\n")));
            }
            stream.write_all(&sent).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();

            let mut reader = BufReader::new(stream);
            let mut responses = Vec::new();
            loop {
                let mut response = Vec::new();
                if reader.read_until(b'\n', &mut response).unwrap() == 0 {
                    break;
                }
                prop_assert!(response.pop() == Some(b'\n'), "an unterminated response {:?}", response);
                responses.push(String::from_utf8(response).unwrap());
            }
            let answered = answered(&lines[..cut]);
            prop_assert!(responses.iter().all(|r| !r.is_empty() && !r.contains('\r')), "{:?}", responses);
            if cut < lines.len() {
                prop_assert_eq!(responses.len(), answered + 1, "{:?}", responses);
                prop_assert!(responses[answered].starts_with("error message="), "{:?}", responses[answered]);
            } else {
                prop_assert_eq!(responses.len(), answered, "{:?}", responses);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever a peer sends, the server answers with exactly one line
        /// and never panics.
        #[test]
        fn any_request_line_gets_exactly_one_response_line(
            parts in prop::collection::vec(fragment(), 0..12),
        ) {
            let fabric = Fabric::builder().workers(0).build();
            let line = parts.concat();
            let response = fabric.handle().handle_line(&line);
            prop_assert!(!response.is_empty() && !response.contains(['\n', '\r']), "{:?} -> {:?}", line, response);
        }
    }
}
