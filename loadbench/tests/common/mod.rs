//! An in-process coqld for the tests.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use co_load::gen::SCHEMA_NAME;
use co_service::{
    parse_schema_decl, serve_with_shutdown, Engine, EngineConfig, ServerConfig, Shutdown,
};

/// A coqld serving `decl` in this process until dropped.
pub struct Server {
    pub addr: SocketAddr,
    shutdown: Shutdown,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    pub fn start(decl: &str) -> Server {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        engine.register_schema(SCHEMA_NAME, parse_schema_decl(decl).unwrap());
        let shutdown = Shutdown::new();
        let stop = shutdown.clone();
        let handle = thread::spawn(move || {
            serve_with_shutdown(listener, engine, ServerConfig::default(), stop)
        });
        Server { addr, shutdown, handle: Some(handle) }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.trigger();
        if let Some(h) = self.handle.take() {
            h.join().unwrap().unwrap();
        }
    }
}
