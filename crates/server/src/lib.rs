//! # sfa-server — a multi-tenant SFA match service
//!
//! A small, std-only (no async runtime) network service over the SFA
//! matcher: tenants register pattern namespaces, clients stream batches
//! of haystacks, and the server answers with per-haystack matched
//! pattern ids.
//!
//! The design leans on the rest of the workspace for everything hard:
//!
//! * **Cold starts** come from [`sfa_serialize`] artifacts — a registered
//!   namespace loads zero-copy from a memory-mapped `.sfa` file when one
//!   exists, falls back to the in-memory compile cache, and only then
//!   compiles (writing the artifact back for next time). See
//!   [`RegisterSource`].
//! * **Throughput** comes from batched admission: concurrent small
//!   requests from different connections are flattened by the dispatcher
//!   into one `matches_batch` scan per tenant per drain, sharing the
//!   8-lane lockstep DFA walk instead of paying per-request dispatch.
//! * **Overload** is explicit: the admission queue is bounded, and a full
//!   queue answers `STATUS_RETRY` with a delay hint instead of silently
//!   stacking latency. Nothing is dropped after admission — shutdown
//!   drains every accepted job before the dispatcher exits.
//!
//! ```no_run
//! use sfa_server::{Client, Server, ServerConfig};
//!
//! let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//!
//! let mut client = Client::connect_tcp(addr).unwrap();
//! client.register("ids", &["worm", "exploit[0-9]+"]).unwrap();
//! let verdicts = client.matches_batch("ids", &[b"an exploit42 here"]).unwrap();
//! assert_eq!(verdicts, vec![vec![1]]);
//! server.shutdown();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod client;
mod config;
pub mod protocol;
mod queue;
mod server;
mod tenants;

pub use client::{Client, ClientError};
pub use config::ServerConfig;
pub use server::Server;
pub use tenants::RegisterSource;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const RULES: &[&str] = &["worm", "exploit[0-9]+", "(ab)+c"];

    #[test]
    fn loopback_register_match_shutdown() {
        let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = Client::connect_tcp(addr).unwrap();

        let (count, source) = client.register("ids", RULES).unwrap();
        assert_eq!(count, 3);
        assert_eq!(source, RegisterSource::CompiledFresh);

        let verdicts = client
            .matches_batch(
                "ids",
                &[b"clean traffic".as_slice(), b"a worm and exploit7", b"xxababcxx"],
            )
            .unwrap();
        assert_eq!(verdicts, vec![vec![], vec![0, 1], vec![2]]);

        // Unknown tenants fail with the typed error's message.
        match client.matches_batch("nobody", &[b"x".as_slice()]) {
            Err(ClientError::Server(msg)) => assert!(msg.contains("nobody"), "{msg}"),
            other => panic!("expected TenantUnknown passthrough, got {other:?}"),
        }

        client.shutdown().unwrap();
        server.shutdown();
    }

    #[test]
    fn second_registration_hits_the_cache_and_artifacts_hit_the_dir() {
        let dir = std::env::temp_dir().join(format!("sfa-server-art-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig { artifact_dir: Some(dir.clone()), ..ServerConfig::default() };
        let server = Server::bind_tcp("127.0.0.1:0", config.clone()).unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = Client::connect_tcp(addr).unwrap();

        let (_, first) = client.register("a", RULES).unwrap();
        assert_eq!(first, RegisterSource::CompiledFresh);
        // Same patterns, different tenant: served from the shared cache
        // (or the artifact the first registration just wrote).
        let (_, second) = client.register("b", RULES).unwrap();
        assert!(matches!(second, RegisterSource::Cache | RegisterSource::Artifact), "{second:?}");
        assert!(server.cache_bytes() > 0);

        // Verdicts agree between the fresh and the artifact-backed tenant.
        let hay: Vec<&[u8]> = vec![b"exploit99", b"nothing", b"wormy"];
        assert_eq!(
            client.matches_batch("a", &hay).unwrap(),
            client.matches_batch("b", &hay).unwrap()
        );
        server.shutdown();

        // A fresh server over the same artifact dir cold-starts from disk.
        let server = Server::bind_tcp("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = Client::connect_tcp(addr).unwrap();
        let (_, cold) = client.register("c", RULES).unwrap();
        assert_eq!(cold, RegisterSource::Artifact);
        assert_eq!(client.matches_batch("c", &hay).unwrap(), vec![vec![1], vec![], vec![0]]);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_connections_batch_and_agree() {
        let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        Server::register(&server, "t", &RULES.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .unwrap();

        let hits = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for worker in 0..8 {
            let hits = Arc::clone(&hits);
            handles.push(std::thread::spawn(move || {
                let mut client = Client::connect_tcp(addr).unwrap();
                for i in 0..20 {
                    let text = format!("packet {i} from {worker} exploit{i}");
                    let verdicts =
                        client.matches_batch_retrying("t", &[text.as_bytes()], 50).unwrap();
                    assert_eq!(verdicts, vec![vec![1]], "{text}");
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 8 * 20);
        server.shutdown();
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_transport_works() {
        let path = std::env::temp_dir().join(format!("sfa-server-{}.sock", std::process::id()));
        let server = Server::bind_unix(&path, ServerConfig::default()).unwrap();
        let mut client = Client::connect_unix(&path).unwrap();
        client.register("t", &["a+b"]).unwrap();
        assert_eq!(client.matches_batch("t", &[b"xaaabx".as_slice()]).unwrap(), vec![vec![0]]);
        server.shutdown();
        assert!(!path.exists(), "socket file is removed on shutdown");
    }

    #[test]
    fn tiny_queue_surfaces_retry_backpressure() {
        // Depth-1 queue, many threads: at least some submissions must see
        // STATUS_RETRY, and every retried request must still succeed.
        let config = ServerConfig { queue_depth: 1, retry_after_ms: 1, ..ServerConfig::default() };
        let server = Server::bind_tcp("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap();
        Server::register(&server, "t", &["x+".to_string()]).unwrap();

        let mut handles = Vec::new();
        for _ in 0..6 {
            handles.push(std::thread::spawn(move || {
                let mut client = Client::connect_tcp(addr).unwrap();
                let mut retries = 0;
                for _ in 0..30 {
                    loop {
                        match client.matches_batch("t", &[b"xxxx".as_slice()]) {
                            Ok(v) => {
                                assert_eq!(v, vec![vec![0]]);
                                break;
                            }
                            Err(ClientError::Retry(ms)) => {
                                retries += 1;
                                std::thread::sleep(std::time::Duration::from_millis(u64::from(
                                    ms.max(1),
                                )));
                            }
                            Err(other) => panic!("unexpected failure: {other}"),
                        }
                    }
                }
                retries
            }));
        }
        let total_retries: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Backpressure is load-dependent; with 6 writers against a
        // depth-1 queue it is effectively certain, but the invariant that
        // matters — retried work succeeds, nothing is lost — held above.
        let _ = total_retries;
        server.shutdown();
    }
}
