//! A bounded per-shard connection pool.
//!
//! `max_live` bounds connections in existence (idle + checked out) so a
//! traffic spike cannot open unbounded sockets to one shard; `max_idle`
//! bounds how many are kept warm between requests. Checkout prefers a
//! warm connection; a reused connection that turns out dead (the shard
//! restarted under us) is the caller's cue to redial once.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use co_service::wire::Conn;

/// Pool knobs.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Connections allowed to exist at once (idle + checked out).
    pub max_live: usize,
    /// Warm connections kept for reuse.
    pub max_idle: usize,
    /// Bound on each dial.
    pub connect_timeout: Duration,
    /// Default socket read/write timeout installed on new connections.
    pub io_timeout: Option<Duration>,
}

/// A bounded pool of [`Conn`]s to one shard address.
pub struct Pool {
    addr: String,
    idle: Mutex<Vec<Conn>>,
    live: AtomicUsize,
    config: PoolConfig,
}

/// What [`Pool::checkout`] produced.
pub enum Checkout {
    /// A connection, warm or fresh.
    Conn(PooledConn),
    /// `max_live` connections are already out — shed to a sibling rather
    /// than queue.
    Exhausted,
    /// The dial failed (connection refused, unresolvable, timed out).
    ConnectFailed(io::Error),
}

impl Pool {
    /// An empty pool for `addr`.
    pub fn new(addr: &str, config: PoolConfig) -> Arc<Pool> {
        Arc::new(Pool {
            addr: addr.to_string(),
            idle: Mutex::new(Vec::new()),
            live: AtomicUsize::new(0),
            config,
        })
    }

    /// The shard address this pool dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Connections currently in existence.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Claims a warm connection or dials a fresh one, respecting
    /// `max_live`.
    pub fn checkout(self: &Arc<Pool>) -> Checkout {
        if let Some(conn) = self.idle.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            return Checkout::Conn(PooledConn {
                conn: Some(conn),
                reused: true,
                pool: Arc::clone(self),
            });
        }
        // Optimistically claim a live slot; undo on dial failure.
        let claimed = self.live.fetch_add(1, Ordering::Relaxed);
        if claimed >= self.config.max_live {
            self.live.fetch_sub(1, Ordering::Relaxed);
            return Checkout::Exhausted;
        }
        match Conn::connect(&self.addr, self.config.connect_timeout, self.config.io_timeout) {
            Ok(conn) => Checkout::Conn(PooledConn {
                conn: Some(conn),
                reused: false,
                pool: Arc::clone(self),
            }),
            Err(e) => {
                self.live.fetch_sub(1, Ordering::Relaxed);
                Checkout::ConnectFailed(e)
            }
        }
    }

    /// Dials outside the pool's `max_live` budget — for probes and
    /// control-plane traffic that must not compete with request traffic.
    pub fn dial_oneshot(&self) -> io::Result<Conn> {
        Conn::connect(&self.addr, self.config.connect_timeout, self.config.io_timeout)
    }

    /// Drops every idle connection (a shard marked down holds no warm
    /// sockets to a dead address).
    pub fn drain_idle(&self) {
        let drained: Vec<Conn> =
            std::mem::take(&mut *self.idle.lock().unwrap_or_else(|e| e.into_inner()));
        self.live.fetch_sub(drained.len(), Ordering::Relaxed);
    }

    fn put_back(&self, conn: Conn) {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        if idle.len() < self.config.max_idle {
            idle.push(conn);
        } else {
            drop(idle);
            self.live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// RAII checkout: return it with [`PooledConn::put_back`] after a clean
/// exchange, or just drop it (connection discarded, live count released)
/// after an I/O error.
pub struct PooledConn {
    conn: Option<Conn>,
    reused: bool,
    pool: Arc<Pool>,
}

impl PooledConn {
    /// Whether this connection was reused from the idle set (a dead reused
    /// connection deserves one redial; a dead fresh one means the shard is
    /// really unreachable).
    pub fn reused(&self) -> bool {
        self.reused
    }

    /// The underlying connection.
    pub fn conn(&mut self) -> &mut Conn {
        self.conn.as_mut().expect("present until put_back")
    }

    /// Returns the connection to the idle set for reuse.
    pub fn put_back(mut self) {
        if let Some(conn) = self.conn.take() {
            self.pool.put_back(conn);
        }
    }
}

impl Drop for PooledConn {
    fn drop(&mut self) {
        // Not put back: the connection is discarded and its live slot
        // released.
        if self.conn.take().is_some() {
            self.pool.live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    fn echo_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // Serve a handful of connections then exit.
            for stream in listener.incoming().take(4).flatten() {
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                        writer.write_all(line.as_bytes()).unwrap();
                        line.clear();
                    }
                });
            }
        });
        (addr, handle)
    }

    fn config() -> PoolConfig {
        PoolConfig {
            max_live: 2,
            max_idle: 1,
            connect_timeout: Duration::from_millis(500),
            io_timeout: Some(Duration::from_millis(500)),
        }
    }

    #[test]
    fn checkout_reuse_and_live_bound() {
        let (addr, _server) = echo_server();
        let pool = Pool::new(&addr.to_string(), config());
        let Checkout::Conn(mut a) = pool.checkout() else { panic!("fresh dial") };
        assert!(!a.reused());
        a.conn().send_line("ping").unwrap();
        assert_eq!(a.conn().read_line().unwrap(), "ping");
        let Checkout::Conn(b) = pool.checkout() else { panic!("second dial") };
        // Two live connections: the cap sheds the third.
        assert!(matches!(pool.checkout(), Checkout::Exhausted));
        a.put_back();
        drop(b);
        // The returned connection is reused warm.
        let Checkout::Conn(mut c) = pool.checkout() else { panic!("reuse") };
        assert!(c.reused());
        c.conn().send_line("again").unwrap();
        assert_eq!(c.conn().read_line().unwrap(), "again");
        drop(c);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn connect_failure_releases_the_slot() {
        // A port nothing listens on: dials fail fast with refused.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap().to_string();
        drop(dead);
        let pool = Pool::new(&addr, config());
        for _ in 0..5 {
            assert!(matches!(pool.checkout(), Checkout::ConnectFailed(_)));
        }
        assert_eq!(pool.live(), 0, "failed dials must not leak live slots");
    }

    #[test]
    fn poisoned_connection_is_dropped_not_reused() {
        // A server that echoes the first line on each of two connections,
        // then truncates the second reply mid-line and severs the socket:
        // the classic drop-mid-reply poisoning.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            {
                // Connection 1: echo one line cleanly, keep the socket
                // open so the pool can keep it warm.
                let (mut healthy, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(healthy.try_clone().unwrap());
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                healthy.write_all(line.as_bytes()).unwrap();
                line.clear();
                // Second request on the same socket: write a truncated
                // reply (no newline) and hang up mid-line. Both the
                // stream and its reader clone drop here, so the FD really
                // closes and the client sees EOF.
                reader.read_line(&mut line).unwrap();
                healthy.write_all(b"OK hol").unwrap();
                healthy.flush().unwrap();
            }
            // Connection 2: prove the pool redialed. Echo cleanly.
            let (mut fresh, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(fresh.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            fresh.write_all(line.as_bytes()).unwrap();
        });

        let pool = Pool::new(&addr, config());
        let Checkout::Conn(mut a) = pool.checkout() else { panic!("dial") };
        a.conn().send_line("first").unwrap();
        assert_eq!(a.conn().read_line().unwrap(), "first");
        a.put_back();

        // Reuse the warm connection; the reply is truncated mid-line.
        let Checkout::Conn(mut b) = pool.checkout() else { panic!("reuse") };
        assert!(b.reused(), "the warm socket comes back first");
        b.conn().send_line("second").unwrap();
        let err = b.conn().read_line().expect_err("truncated reply must error, not parse");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // The exchange failed: the connection is poisoned. Dropping the
        // checkout must discard it — NOT return it to the idle set.
        drop(b);
        assert_eq!(pool.live(), 0, "poisoned connection must release its live slot");

        // The next request gets a brand-new socket, never the poisoned one.
        let Checkout::Conn(mut c) = pool.checkout() else { panic!("fresh redial") };
        assert!(!c.reused(), "after poisoning, the next checkout must dial fresh");
        c.conn().send_line("third").unwrap();
        assert_eq!(c.conn().read_line().unwrap(), "third");
        drop(c);
        server.join().unwrap();
    }
}
