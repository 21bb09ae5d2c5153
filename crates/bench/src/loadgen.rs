//! Socket load client for the serving tier (`ogsa_serve::Server`), behind
//! `tests/serving_tier.rs`.
//!
//! A closed loop: every keep-alive connection is opened on the calling
//! thread first, then one blocking thread per connection replays a
//! pre-serialised request template, sending the next request the instant
//! the response lands. Latencies of requests sent after the warmup land in
//! the telemetry plane's [`WallHistogram`].

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ogsa_core::serve::http;
use ogsa_core::telemetry::wallclock::WallHistogram;

/// How long a connection waits on the server before it counts as an
/// error, so no thread can hang a test.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Stack of each connection's thread: it holds one read chunk and little
/// else.
const CONNECTION_STACK: usize = 64 * 1024;

/// One load run against a bound server.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    pub addr: SocketAddr,
    /// Concurrent keep-alive connections to hold open.
    pub connections: usize,
    /// Measured window (after warmup).
    pub duration: Duration,
    /// Requests sent before this much time are not recorded.
    pub warmup: Duration,
    /// Request target, e.g. `/services/counter`.
    pub target: String,
    /// `Host` header value (picks the container on the network).
    pub host: String,
    /// Pre-serialised request body — signed once, replayed verbatim; the
    /// server still verifies and signs per request.
    pub body: String,
    /// When set, a scraper thread GETs `/metrics` from this admin address
    /// mid-run (halfway through the measured window) and again after the
    /// run, proving the exposition stays parseable under sustained load
    /// and that the server-side request counter squares with the
    /// client-side tally ([`ScrapeCheck`]).
    pub scrape_admin: Option<SocketAddr>,
}

/// What the optional mid-run admin scrape saw.
#[derive(Debug, Clone)]
pub struct ScrapeCheck {
    /// Whether the mid-run exposition parsed and its histograms were
    /// cumulative + consistent.
    pub mid_run_parsed: bool,
    /// `serve_requests` from the mid-run scrape.
    pub mid_run_server_requests: u64,
    /// `serve_requests` from the post-run scrape.
    pub final_server_requests: u64,
}

impl ScrapeCheck {
    /// Server-vs-client consistency: a mid-run scrape must parse, the
    /// server counter must be monotone across scrapes, and the final
    /// server-side count must cover every request the client measured
    /// (the server also counts warmup and foreign traffic, so `>=`).
    pub fn consistent_with(&self, client_requests: u64) -> bool {
        self.mid_run_parsed
            && self.mid_run_server_requests <= self.final_server_requests
            && self.final_server_requests >= client_requests
    }
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub connections_established: usize,
    /// Requests answered 200 within the measured window.
    pub requests: u64,
    pub errors: u64,
    pub p99_us: u64,
    /// Present when [`LoadConfig::scrape_admin`] was set.
    pub scrape: Option<ScrapeCheck>,
}

// ---- RLIMIT_NOFILE ---------------------------------------------------------

/// Raise the soft open-file limit toward `want` (capped at the hard
/// limit): thousands of sockets need more than the 1024 default on stock
/// CI runners. Best effort — a connect that still runs out of descriptors
/// fails the run with its own error.
#[cfg(target_os = "linux")]
fn raise_nofile_limit(want: usize) {
    use std::os::raw::c_ulong;
    /// Linux's `struct rlimit`: two `rlim_t`, which is `unsigned long`.
    #[repr(C)]
    struct Rlimit {
        cur: c_ulong,
        max: c_ulong,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    let want = c_ulong::try_from(want).unwrap_or(c_ulong::MAX);
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: both calls take a pointer to a live, aligned `Rlimit` laid out
    // as the C struct; `getrlimit` writes only that struct and `setrlimit`
    // only reads it.
    unsafe {
        if getrlimit(RLIMIT_NOFILE, &mut lim) == 0 && lim.cur < want {
            let raised = Rlimit {
                cur: want.min(lim.max),
                max: lim.max,
            };
            setrlimit(RLIMIT_NOFILE, &raised);
        }
    }
}

// ---- response framing ------------------------------------------------------

/// Locate one complete HTTP response at the front of `buf`, returning
/// `(total_len, status)`. A head that cannot be framed — no `HTTP/1.x NNN`
/// status line, or a `Content-Length` that is not a length — comes back as
/// status 999 covering the head, so it counts as an error rather than
/// wedging the connection.
fn parse_response(buf: &[u8]) -> Option<(usize, u16)> {
    const UNFRAMABLE: u16 = 999;
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = &buf[..head_end];
    // "HTTP/1.1 NNN ..."
    let digits = head
        .get(9..12)
        .filter(|d| head.starts_with(b"HTTP/1.") && d.iter().all(u8::is_ascii_digit));
    let Some(digits) = digits else {
        return Some((head_end, UNFRAMABLE));
    };
    let status = digits.iter().fold(0, |n, d| n * 10 + u16::from(d - b'0'));
    let mut total = head_end;
    for line in head.split(|&b| b == b'\n') {
        let lower_prefix = b"content-length:";
        if line.len() > lower_prefix.len()
            && line[..lower_prefix.len()].eq_ignore_ascii_case(lower_prefix)
        {
            let length = std::str::from_utf8(&line[lower_prefix.len()..])
                .ok()
                .and_then(|d| d.trim().parse().ok());
            match length.and_then(|n| head_end.checked_add(n)) {
                Some(end) => total = end,
                None => return Some((head_end, UNFRAMABLE)),
            }
        }
    }
    (buf.len() >= total).then_some((total, status))
}

// ---- admin scraping --------------------------------------------------------

/// Fetch one `/metrics` body from an admin address over a throwaway
/// connection.
fn scrape_metrics(addr: SocketAddr) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut wire = Vec::new();
    http::write_get_request(&mut wire, "/metrics", "loadgen", false);
    stream.write_all(&wire)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    match text.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_owned()),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "admin /metrics did not answer 200",
        )),
    }
}

/// `serve_requests` from an exposition body, when it parses cleanly with
/// consistent histograms.
fn parse_server_requests(body: &str) -> Option<u64> {
    let exp = ogsa_core::telemetry::prometheus::parse_exposition(body).ok()?;
    exp.check_histograms().ok()?;
    Some(exp.get("serve_requests", &[])?.value as u64)
}

// ---- the load loop ---------------------------------------------------------

/// Run one load scenario. The template is built once; every request on
/// every connection replays the same bytes.
pub fn run(config: &LoadConfig) -> io::Result<LoadReport> {
    let mut template = Vec::new();
    http::write_request(
        &mut template,
        &config.target,
        &config.host,
        true,
        &config.body,
    );
    #[cfg(target_os = "linux")]
    raise_nofile_limit(config.connections * 2 + 512);
    let streams = (0..config.connections)
        .map(|_| {
            let stream = TcpStream::connect(config.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            Ok(stream)
        })
        .collect::<io::Result<Vec<_>>>()?;
    let connections_established = streams.len();

    let measure_from = Instant::now() + config.warmup;
    let deadline = measure_from + config.duration;
    let hist = WallHistogram::new();
    let (errors, mid) = std::thread::scope(|s| -> io::Result<_> {
        // The scraper rides its own thread and connection, so a scrape
        // under sustained load is exactly what production sees.
        let scraper = config.scrape_admin.map(|admin| {
            s.spawn(move || {
                std::thread::sleep(config.warmup + config.duration / 2);
                scrape_metrics(admin).ok()
            })
        });
        let loops = streams
            .into_iter()
            .map(|stream| {
                let (template, hist) = (&template, &hist);
                std::thread::Builder::new()
                    .stack_size(CONNECTION_STACK)
                    .spawn_scoped(s, move || {
                        drive(stream, template, measure_from, deadline, hist)
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;
        // A connection thread that panicked counts as one error.
        let errors = loops.into_iter().map(|d| d.join().unwrap_or(1)).sum();
        let mid = scraper.and_then(|h| h.join().ok().flatten());
        Ok((errors, mid))
    })?;

    let hist = hist.snapshot();
    let scrape = config.scrape_admin.map(|admin| {
        let mid = mid.as_deref().and_then(parse_server_requests);
        let fin = scrape_metrics(admin)
            .ok()
            .as_deref()
            .and_then(parse_server_requests);
        ScrapeCheck {
            mid_run_parsed: mid.is_some(),
            mid_run_server_requests: mid.unwrap_or(0),
            final_server_requests: fin.unwrap_or(0),
        }
    });
    Ok(LoadReport {
        connections_established,
        requests: hist.count,
        errors,
        p99_us: hist.quantile_us(0.99),
        scrape,
    })
}

/// One connection's closed loop until `deadline`; returns its error count.
/// A non-200 answer is an error and the loop goes on; a connection that
/// fails, closes or times out is one error and ends.
fn drive(
    mut stream: TcpStream,
    template: &[u8],
    measure_from: Instant,
    deadline: Instant,
    hist: &WallHistogram,
) -> u64 {
    let mut errors = 0;
    let mut rbuf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let sent = Instant::now();
        if sent >= deadline {
            return errors;
        }
        if stream.write_all(template).is_err() {
            return errors + 1;
        }
        let (len, status) = loop {
            if let Some(frame) = parse_response(&rbuf) {
                break frame;
            }
            match stream.read(&mut chunk) {
                Ok(n) if n > 0 => rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => return errors + 1,
            }
        };
        rbuf.drain(..len);
        if status != 200 {
            errors += 1;
        } else if sent >= measure_from {
            hist.record(sent.elapsed().as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_response_frames_exactly() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody";
        assert_eq!(parse_response(wire), Some((wire.len(), 200)));
        assert_eq!(parse_response(&wire[..wire.len() - 1]), None);
        let mut two = wire.to_vec();
        two.extend_from_slice(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
        let (len, status) = parse_response(&two).unwrap();
        assert_eq!((len, status), (wire.len(), 200));
        assert_eq!(parse_response(&two[len..]), Some((two.len() - len, 404)));

        // A status byte below '0' once overflowed the digit arithmetic, and
        // an unparsable length waited for a body forever: both are errors.
        for head in [
            &b"HTTP/1.1 #00 OK\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\nContent-Length: four\r\n\r\n",
        ] {
            assert_eq!(parse_response(head), Some((head.len(), 999)));
        }
    }
}
