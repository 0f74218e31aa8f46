//! Empty stand-in for `crossbeam`.
//!
//! Nothing in the workspace imports this crate: its channel subset went
//! when `opencom::ipc` moved to `std::sync::mpsc`. The package stays only
//! because the `netkit_kernel` and `opencom` manifests still name it and
//! `benchmark/Cargo.lock` records it; it goes with those entries.

#![forbid(unsafe_code)]
