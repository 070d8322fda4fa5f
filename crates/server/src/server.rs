//! The **socket server**: line-delimited JSON jobs over a Unix or TCP
//! stream, answered in arrival waves.
//!
//! # Wave scheduling
//!
//! A connection is served by two threads: a reader that decodes job lines
//! into a channel, and the wave loop, which blocks for the first pending
//! job, drains everything else that has already arrived, and runs the whole
//! wave through the LPT scheduler ([`crate::sched`]). A lone interactive job
//! therefore starts immediately, while a client that floods 200 jobs gets
//! them scheduled longest-first across the worker pool — the two workload
//! shapes need no configuration to coexist.
//!
//! # Shutdown
//!
//! End-of-stream on the socket (the peer closed or half-closed its end) ends
//! the reader; the wave loop then finishes every job already accepted,
//! writes the remaining responses, and returns. Nothing queued is ever
//! dropped — the soak harness (`pv soak`) asserts exactly this.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use pipeverify_core::json::Json;

use crate::job::JobRunner;
use crate::protocol::{self, JobRequest};
use crate::sched;

/// Where the server listens (and clients connect): `unix:<path>` or
/// `tcp:<host>:<port>`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BindAddr {
    /// A Unix-domain socket at the given path.
    Unix(PathBuf),
    /// A TCP socket at the given `host:port`.
    Tcp(String),
}

impl FromStr for BindAddr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".to_owned());
            }
            Ok(BindAddr::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            if !addr.contains(':') {
                return Err(format!("`{addr}` is not host:port"));
            }
            Ok(BindAddr::Tcp(addr.to_owned()))
        } else {
            Err(format!(
                "`{s}` must start with `unix:` or `tcp:` (e.g. unix:/tmp/pv.sock, tcp:127.0.0.1:7171)"
            ))
        }
    }
}

impl std::fmt::Display for BindAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            BindAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

impl BindAddr {
    /// Connects a client.
    ///
    /// # Errors
    /// Propagates the connect error.
    pub fn connect(&self) -> io::Result<Stream> {
        match self {
            BindAddr::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            BindAddr::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Stream::Tcp),
        }
    }
}

/// One connected socket of either transport: what a client gets from
/// [`BindAddr::connect`] and what the server accepts.
#[derive(Debug)]
pub enum Stream {
    /// A Unix-domain stream.
    Unix(UnixStream),
    /// A TCP stream.
    Tcp(TcpStream),
}

impl Stream {
    /// A read handle on the same socket, for reading on another thread
    /// while this one writes.
    ///
    /// # Errors
    /// Propagates the handle-cloning error.
    pub fn reader(&self) -> io::Result<Box<dyn io::Read + Send>> {
        Ok(match self {
            Stream::Unix(s) => Box::new(s.try_clone()?),
            Stream::Tcp(s) => Box::new(s.try_clone()?),
        })
    }

    /// Closes the write half: the peer reads end-of-stream, which is how a
    /// client signals end-of-jobs and starts the server's graceful drain.
    ///
    /// # Errors
    /// Propagates the shutdown error.
    pub fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(Shutdown::Write),
            Stream::Tcp(s) => s.shutdown(Shutdown::Write),
        }
    }
}

impl io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// What one connection processed, for logging.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConnectionStats {
    /// Jobs answered with `ok: true`.
    pub jobs: usize,
    /// Lines answered with an error response (malformed or failing jobs).
    pub errors: usize,
}

/// Serves one connection: reads job lines until end-of-stream, runs them in
/// arrival waves on `threads` workers, and writes one response line per job
/// line (in wave order; responses carry the request id). Lines follow
/// [`protocol::decode_line`]: blank and `#` lines get no answer. Returns once
/// every accepted job has been answered — the graceful-shutdown contract.
///
/// # Errors
/// Propagates write errors (a peer that vanished mid-response); read errors
/// end the stream like EOF does.
pub fn handle_connection<R, W>(
    runner: &JobRunner,
    threads: usize,
    reader: R,
    writer: W,
) -> io::Result<ConnectionStats>
where
    R: io::Read + Send,
    W: io::Write,
{
    let mut out = BufWriter::new(writer);
    let mut stats = ConnectionStats { jobs: 0, errors: 0 };
    let (tx, rx) = mpsc::channel::<Result<JobRequest, Json>>();

    std::thread::scope(|scope| {
        scope.spawn(move || {
            for line in BufReader::new(reader).lines() {
                let Ok(line) = line else { break };
                let Some(decoded) = protocol::decode_line(&line) else {
                    continue;
                };
                if tx.send(decoded).is_err() {
                    break; // the wave loop died on a write error
                }
            }
            // Dropping `tx` is the end-of-stream signal for the wave loop.
        });

        // Block for the first pending line of each wave; channel closure =
        // EOF with everything already drained into earlier waves.
        while let Ok(first) = rx.recv() {
            let mut wave = vec![first];
            while let Ok(next) = rx.try_recv() {
                wave.push(next);
            }

            // Malformed lines answer immediately; well-formed jobs run as
            // one LPT wave.
            let mut jobs = Vec::new();
            for decoded in wave {
                match decoded {
                    Ok(job) => jobs.push(job),
                    Err(error) => {
                        stats.errors += 1;
                        writeln!(out, "{}", error.render())?;
                    }
                }
            }
            let outcomes = sched::run_jobs(runner, &jobs, threads, |_, _| {});
            let answered = outcomes.iter().filter(|o| o.is_ok()).count();
            stats.jobs += answered;
            stats.errors += jobs.len() - answered;
            for (job, outcome) in jobs.iter().zip(&outcomes) {
                writeln!(
                    out,
                    "{}",
                    protocol::outcome_to_json(job.id, outcome).render()
                )?;
            }
            out.flush()?;
        }
        out.flush()?;
        Ok(stats)
    })
}

/// Accept-loop poll interval while checking the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Serves connections at `addr` until `shutdown` turns true, handling each
/// connection on its own thread (connections in flight are drained before
/// returning). A Unix socket path left over from an earlier run is removed
/// before binding.
///
/// # Errors
/// Propagates bind/accept errors. Per-connection I/O errors are logged to
/// stderr and do not stop the server.
pub fn serve(
    addr: &BindAddr,
    runner: &JobRunner,
    threads: usize,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    match addr {
        BindAddr::Unix(path) => {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            let result = accept_loop(runner, threads, shutdown, || {
                let (stream, _) = listener.accept()?;
                stream.set_nonblocking(false)?;
                Ok(Stream::Unix(stream))
            });
            std::fs::remove_file(path).ok();
            result
        }
        BindAddr::Tcp(tcp) => {
            let listener = TcpListener::bind(tcp.as_str())?;
            listener.set_nonblocking(true)?;
            accept_loop(runner, threads, shutdown, || {
                let (stream, _) = listener.accept()?;
                stream.set_nonblocking(false)?;
                Ok(Stream::Tcp(stream))
            })
        }
    }
}

/// Polls the non-blocking `accept` until `shutdown` turns true, serving each
/// accepted connection on its own thread.
fn accept_loop<A>(
    runner: &JobRunner,
    threads: usize,
    shutdown: &AtomicBool,
    accept: A,
) -> io::Result<()>
where
    A: Fn() -> io::Result<Stream>,
{
    std::thread::scope(|scope| {
        while !shutdown.load(Ordering::Relaxed) {
            match accept() {
                Ok(stream) => {
                    let reader = stream.reader()?;
                    scope.spawn(
                        move || match handle_connection(runner, threads, reader, stream) {
                            Ok(stats) => eprintln!(
                                "pv: connection closed ({} jobs, {} errors, {} cache hits so far)",
                                stats.jobs,
                                stats.errors,
                                runner.cache_hits(),
                            ),
                            Err(e) => eprintln!("pv: connection failed: {e}"),
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
                Err(e) => return Err(e),
            }
        }
        Ok(())
        // The scope joins in-flight connection handlers here: shutdown waits
        // for every accepted connection to drain.
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_addresses_parse_and_render() {
        let unix: BindAddr = "unix:/tmp/pv.sock".parse().unwrap();
        assert_eq!(unix, BindAddr::Unix(PathBuf::from("/tmp/pv.sock")));
        assert_eq!(unix.to_string(), "unix:/tmp/pv.sock");
        let tcp: BindAddr = "tcp:127.0.0.1:7171".parse().unwrap();
        assert_eq!(tcp, BindAddr::Tcp("127.0.0.1:7171".to_owned()));
        for bad in ["", "unix:", "tcp:7171", "/tmp/pv.sock"] {
            assert!(bad.parse::<BindAddr>().is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn a_connection_answers_jobs_and_bad_lines_then_drains_on_eof() {
        let runner = JobRunner::new(None);
        // A valid job padded past the line limit: rejected unparsed, never run.
        let oversized = format!(
            r#"{{"id":3,"design":{{"vsm":{{"num_regs":1}}}},"plans":["r 0"],"pad":"{}"}}"#,
            "x".repeat(protocol::MAX_LINE_BYTES)
        );
        let input = format!(
            "{}\n# a comment line gets no answer\nthis is not json\n{}\n{oversized}\n",
            r#"{"id":1,"design":{"family":{"depth":2,"word_width":4,"num_regs":2,"delay_slots":0}},"plans":["r 0"]}"#,
            r#"{"id":2,"design":{"vsm":{"num_regs":9}}}"#,
        );
        let mut output = Vec::new();
        let stats =
            handle_connection(&runner, 2, input.as_bytes(), &mut output).expect("no write errors");
        assert_eq!(
            stats,
            ConnectionStats { jobs: 1, errors: 3 },
            "one job; an unparsable line, an invalid design, an oversized line"
        );

        let lines: Vec<Json> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("every response line is JSON"))
            .collect();
        assert_eq!(lines.len(), 4, "every line but the comment is answered");
        let ok_ids: Vec<Option<u64>> = lines
            .iter()
            .filter(|l| l.get("ok").and_then(Json::as_bool) == Some(true))
            .map(|l| l.get("id").and_then(Json::as_u64))
            .collect();
        assert_eq!(ok_ids, [Some(1)], "only the valid job runs");
        let limit = format!("exceeds the {}-byte limit", protocol::MAX_LINE_BYTES);
        let too_long = lines.iter().filter(|l| {
            let error = l.get("error").and_then(Json::as_str).unwrap_or("");
            l.get("kind").and_then(Json::as_str) == Some("invalid") && error.contains(&limit)
        });
        assert_eq!(too_long.count(), 1, "the oversized line names the limit");
    }
}
