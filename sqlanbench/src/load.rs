//! The open-loop load generator.
//!
//! Requests are due on a schedule fixed before the phase starts; the
//! sender never waits for a reply. Two threads drive at most two
//! keep-alive connections: a sender that writes each request when it is
//! due (pipelining behind any unanswered ones), and a receiver that
//! reads responses off both connections through epoll. Each connection
//! answers in order, so the k-th response on a connection belongs to the
//! k-th request sent on it.
//!
//! Latency is timed from the due time, not the send time: a stalled
//! reply delays every later reply on its connection, and a late sender
//! delays the requests it sends late, and both show in the figures.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlan_net::sys::{Epoll, EpollEvent, EPOLLIN};

/// Connections (and so load threads' worth of in-flight streams).
pub const CONNECTIONS: usize = 2;

/// One request of a phase, ready to write.
#[derive(Debug, Clone)]
pub struct Request {
    pub conn: usize,
    /// Offset of the due time from the phase start.
    pub due: Duration,
    pub bytes: Vec<u8>,
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub due: Duration,
    /// When the sender actually wrote it (offset from phase start).
    pub sent: Duration,
    /// When its response was complete; `None` if it never came.
    pub done: Option<Duration>,
    pub status: u16,
    pub body: Vec<u8>,
}

impl Outcome {
    /// Latency from the due time in milliseconds; a request that failed
    /// or was never answered is infinitely late, so it misses any limit.
    pub fn latency_ms(&self) -> f64 {
        match self.done {
            Some(done) if self.status == 200 => (done.saturating_sub(self.due)).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent it, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Poisson arrivals at `rate` per second: `n` due offsets with seeded
/// exponential gaps.
pub fn poisson_schedule(n: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Render one keep-alive `POST /predict`.
pub fn predict_request(body: &str) -> Vec<u8> {
    format!(
        "POST /predict HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Incremental HTTP/1.1 response reader: status plus a
/// `content-length`-framed body, which is all the server sends.
#[derive(Debug, Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
}

impl ResponseReader {
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, if buffered.
    pub fn next_response(&mut self) -> Result<Option<(u16, Vec<u8>)>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|e| e.to_string())?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let length = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .ok_or_else(|| format!("no content-length in {head:?}"))?;
        let start = head_end + 4;
        if self.buf.len() < start + length {
            return Ok(None);
        }
        let body = self.buf[start..start + length].to_vec();
        self.buf.drain(..start + length);
        Ok(Some((status, body)))
    }
}

/// Run one phase: send every request at its due time over fresh
/// connections to `addr`, collect every response, and wait at most
/// `grace` past the last due time for stragglers.
pub fn run_phase(addr: SocketAddr, requests: &[Request], grace: Duration) -> Vec<Outcome> {
    let streams: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect to the server");
            s.set_nodelay(true).expect("set TCP_NODELAY");
            // A server that stops reading must not hang the sender.
            s.set_write_timeout(Some(Duration::from_secs(10)))
                .expect("set write timeout");
            s
        })
        .collect();
    let mut writers: Vec<TcpStream> = streams
        .iter()
        .map(|s| s.try_clone().expect("clone stream"))
        .collect();
    // Request indices per connection, in send order.
    let mut per_conn: Vec<Vec<usize>> = vec![Vec::new(); CONNECTIONS];
    for (i, r) in requests.iter().enumerate() {
        per_conn[r.conn].push(i);
    }
    let last_due = requests.last().map(|r| r.due).unwrap_or_default();
    let start = Instant::now();

    let (sent, answers) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = vec![Duration::ZERO; requests.len()];
            let mut broken = [false; CONNECTIONS];
            for (i, r) in requests.iter().enumerate() {
                let now = start.elapsed();
                if r.due > now {
                    std::thread::sleep(r.due - now);
                }
                sent[i] = start.elapsed();
                if !broken[r.conn] && writers[r.conn].write_all(&r.bytes).is_err() {
                    broken[r.conn] = true;
                }
            }
            sent
        });
        let receiver = scope.spawn(|| receive(&streams, &per_conn, start, last_due + grace));
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    requests
        .iter()
        .zip(sent)
        .zip(answers)
        .map(|((r, sent), answer)| {
            let (done, status, body) = answer.unwrap_or((Duration::ZERO, 0, Vec::new()));
            Outcome {
                due: r.due,
                sent,
                done: (status != 0).then_some(done),
                status,
                body,
            }
        })
        .collect()
}

type Answer = Option<(Duration, u16, Vec<u8>)>;

/// Read responses off every connection until each request has one or
/// the deadline (offset from `start`) passes.
fn receive(
    streams: &[TcpStream],
    per_conn: &[Vec<usize>],
    start: Instant,
    deadline: Duration,
) -> Vec<Answer> {
    let total: usize = per_conn.iter().map(Vec::len).sum();
    let mut answers: Vec<Answer> = vec![None; total];
    let epoll = Epoll::new().expect("epoll_create");
    for (c, s) in streams.iter().enumerate() {
        epoll
            .add(s.as_raw_fd(), EPOLLIN, c as u64)
            .expect("register connection");
    }
    let mut readers: Vec<ResponseReader> = (0..streams.len())
        .map(|_| ResponseReader::default())
        .collect();
    let mut next = vec![0usize; streams.len()];
    let mut open = vec![true; streams.len()];
    let mut received = 0usize;
    let mut events = [EpollEvent { events: 0, data: 0 }; CONNECTIONS];
    let mut chunk = vec![0u8; 64 * 1024];
    while received < total && start.elapsed() < deadline && open.iter().any(|&o| o) {
        let n = epoll.wait(&mut events, 20).expect("epoll_wait");
        for ev in &events[..n] {
            let c = ev.data as usize;
            // The sockets stay blocking (the sender shares them), but
            // epoll reported this one readable, so one read returns at
            // once; level triggering reports whatever it leaves.
            match (&streams[c]).read(&mut chunk) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Ok(0) | Err(_) => open[c] = false,
                Ok(k) => readers[c].feed(&chunk[..k]),
            }
            let now = start.elapsed();
            while let Ok(Some((status, body))) = readers[c].next_response() {
                let Some(&i) = per_conn[c].get(next[c]) else {
                    break;
                };
                answers[i] = Some((now, status, body));
                next[c] += 1;
                received += 1;
            }
            if !open[c] {
                let _ = epoll.del(streams[c].as_raw_fd());
            }
        }
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn respond(stream: &mut TcpStream, body: &str) {
        let head = format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", body.len());
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
    }

    /// Read the next request off a stream, keeping pipelined bytes in
    /// the parser for the following call.
    fn read_request(stream: &mut TcpStream, parser: &mut sqlan_net::HttpParser) {
        let mut parse = parser.poll();
        loop {
            match parse {
                sqlan_net::Parse::Request(_) => return,
                sqlan_net::Parse::Partial => {
                    let mut tmp = [0u8; 4096];
                    let k = stream.read(&mut tmp).unwrap();
                    assert!(k > 0, "client closed early");
                    parse = parser.feed(&tmp[..k]);
                }
                sqlan_net::Parse::Error(e) => panic!("bad request: {e:?}"),
            }
        }
    }

    #[test]
    fn response_reader_handles_split_and_pipelined_responses() {
        let mut r = ResponseReader::default();
        r.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nh");
        assert_eq!(r.next_response().unwrap(), None);
        r.feed(b"iHTTP/1.1 503 Busy\r\ncontent-length: 0\r\n\r\n");
        assert_eq!(r.next_response().unwrap(), Some((200, b"hi".to_vec())));
        assert_eq!(r.next_response().unwrap(), Some((503, Vec::new())));
        assert_eq!(r.next_response().unwrap(), None);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_rate() {
        let a = poisson_schedule(20_000, 1000.0, 7);
        assert_eq!(a, poisson_schedule(20_000, 1000.0, 7));
        assert_ne!(a, poisson_schedule(20_000, 1000.0, 8));
        let span = a.last().unwrap().as_secs_f64();
        assert!(
            (span - 20.0).abs() < 0.6,
            "20k arrivals at 1k/s took {span}s"
        );
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn failed_and_missing_requests_are_infinitely_late() {
        let ok = Outcome {
            due: Duration::from_millis(10),
            sent: Duration::from_millis(11),
            done: Some(Duration::from_millis(14)),
            status: 200,
            body: Vec::new(),
        };
        assert!((ok.latency_ms() - 4.0).abs() < 1e-9);
        assert!((ok.late_ms() - 1.0).abs() < 1e-9);
        let refused = Outcome {
            status: 503,
            ..ok.clone()
        };
        assert_eq!(refused.latency_ms(), f64::INFINITY);
        let missing = Outcome {
            done: None,
            status: 0,
            ..ok
        };
        assert_eq!(missing.latency_ms(), f64::INFINITY);
    }

    /// A server that stalls its second reply makes every later request
    /// on that connection late, because latency runs from the due time.
    #[test]
    fn one_stalled_reply_makes_later_requests_late() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stall = Duration::from_millis(150);
        let server = std::thread::spawn(move || {
            let mut conns: Vec<TcpStream> = (0..CONNECTIONS)
                .map(|_| listener.accept().unwrap().0)
                .collect();
            // Only connection 0 carries traffic in this test.
            let mut c0 = conns.remove(0);
            let mut parser = sqlan_net::HttpParser::new(1 << 20);
            for i in 0..5 {
                read_request(&mut c0, &mut parser);
                if i == 1 {
                    std::thread::sleep(stall);
                }
                respond(&mut c0, "{}");
            }
        });
        let requests: Vec<Request> = (0..5)
            .map(|i| Request {
                conn: 0,
                due: Duration::from_millis(20 * i),
                bytes: predict_request("{}"),
            })
            .collect();
        let out = run_phase(addr, &requests, Duration::from_secs(5));
        server.join().unwrap();
        let lat: Vec<f64> = out.iter().map(Outcome::latency_ms).collect();
        assert!(lat.iter().all(|l| l.is_finite()), "{lat:?}");
        assert!(lat[0] < 50.0, "{lat:?}");
        // Request 1 waits out the stall; requests 2 and 3 were due 20 and
        // 40 ms later but queue behind it, so their latency from the due
        // time still carries most of the stall.
        let stall_ms = stall.as_secs_f64() * 1e3;
        assert!(lat[1] >= stall_ms, "{lat:?}");
        assert!(lat[2] >= stall_ms - 20.0, "{lat:?}");
        assert!(lat[3] >= stall_ms - 40.0, "{lat:?}");
        // The generator itself was on time: the stall is the server's.
        assert!(out.iter().all(|o| o.late_ms() < 20.0));
    }
}
