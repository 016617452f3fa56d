//! Socket-to-socket benchmark of the Taster server.
//!
//! One process starts a real `SessionService` + `TcpServer` on loopback,
//! drives it with `taster_server::Client` connections from at most `nproc`
//! client threads, checks the answers against `BaselineEngine`, and prints
//! every metric by name and unit. See `README.md` in this directory for the
//! glossary, and `BENCHMARK.json` at the repository root for the contract.

pub mod cli;
pub mod json;
pub mod load;
pub mod metrics;
pub mod requests;
pub mod stack;
pub mod trace;
pub mod verify;
