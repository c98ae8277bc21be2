//! Serving topologies on loopback, driven from outside the library exactly
//! as `mc-serve serve` / `mc-serve route` assemble them.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use mc_net::{ClientConfig, NetServer, ReloadHook, RetryPolicy, RouterBackend, RouterConfig};
use metacache::serving::{EngineConfig, ServingEngine};
use metacache::Database;

use crate::util::nproc;

/// Engine shape of `mc-serve serve` (`--workers` = CPUs, `--queue 4`,
/// `--batch 256`).
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: nproc(),
        queue_capacity: 4,
        batch_records: 256,
        session_max_in_flight: 0,
        ..EngineConfig::default()
    }
}

/// Router connection settings of `mc-serve route`.
pub fn router_config() -> RouterConfig {
    RouterConfig {
        client: ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            request_timeout: Some(Duration::from_secs(30)),
            ..ClientConfig::default()
        },
        policy: RetryPolicy::default(),
    }
}

/// A router engine over shard servers at `addrs`, sharing `meta`.
pub fn router_engine(meta: Arc<Database>, addrs: &[SocketAddr]) -> ServingEngine {
    let backend =
        RouterBackend::new(meta, addrs, router_config()).expect("loopback addresses resolve");
    ServingEngine::new(backend, engine_config())
}

/// Serve `engine` on an ephemeral loopback port for the duration of `body`,
/// then drain. Returns `body`'s result and the server's drain counters.
pub fn with_server<T>(
    engine: &ServingEngine,
    reload: Option<ReloadHook>,
    body: impl FnOnce(SocketAddr) -> T,
) -> (T, mc_net::ServerStats) {
    let server = NetServer::bind(engine, "127.0.0.1:0").expect("bind loopback");
    let server = match reload {
        Some(hook) => server.with_reload(hook),
        None => server,
    };
    let handle = server.handle();
    std::thread::scope(|scope| {
        let runner = scope.spawn(move || server.run());
        // Drain the server even if the body panics, so the scope can join.
        struct Drain(mc_net::ServerHandle);
        impl Drop for Drain {
            fn drop(&mut self) {
                self.0.shutdown();
            }
        }
        let drain = Drain(handle.clone());
        let out = body(handle.local_addr());
        drop(drain);
        let stats = runner
            .join()
            .expect("server thread panicked")
            .expect("server loop failed");
        (out, stats)
    })
}
