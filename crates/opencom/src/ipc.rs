//! Isolation machinery: out-of-"address-space" component hosting.
//!
//! Paper §5: "untrusted constituents can be instantiated, and remotely
//! managed by the parent composite, in a separate address-space from the
//! parent … inter-component bindings in this case are transparently
//! realised in terms of OS-level IPC mechanisms rather than intra-address
//! space vtables."
//!
//! The Rust reproduction hosts the untrusted component on a dedicated
//! thread behind a synchronous message channel. This preserves the three
//! observable properties of the original design:
//!
//! 1. **No shared memory** — every call is marshalled to bytes and back
//!    ([`IpcRequest`]/[`IpcReply`]); the component never sees the parent's
//!    data structures.
//! 2. **Crash containment** — panics are caught at the host boundary; the
//!    host reports [`IpcReply::Crashed`] and refuses further calls until
//!    the supervisor respawns the component.
//! 3. **Transparency** — callers hold an ordinary [`InterfaceRef`](crate::interface::InterfaceRef) built
//!    by a per-interface proxy factory (the stub/skeleton pair of COM).
//!
//! Marshalling uses the crate-local [`wire`] codec (length-prefixed
//! fields) because no serialisation *format* crate is available offline;
//! the codec is deliberately trivial and fully property-tested.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::RwLock;

use crate::error::{Error, Result};
use crate::ident::ComponentId;

/// Minimal length-prefixed binary codec used for IPC marshalling.
pub mod wire {
    /// Appends a length-prefixed byte field.
    pub fn put_bytes(buf: &mut Vec<u8>, field: &[u8]) {
        buf.extend_from_slice(&(field.len() as u32).to_le_bytes());
        buf.extend_from_slice(field);
    }

    /// Appends a length-prefixed UTF-8 string field.
    pub fn put_str(buf: &mut Vec<u8>, field: &str) {
        put_bytes(buf, field.as_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Reads a length-prefixed byte field, advancing `pos`.
    pub fn get_bytes(buf: &[u8], pos: &mut usize) -> Option<Vec<u8>> {
        let len = u32::from_le_bytes(buf.get(*pos..*pos + 4)?.try_into().ok()?) as usize;
        *pos += 4;
        let out = buf.get(*pos..*pos + len)?.to_vec();
        *pos += len;
        Some(out)
    }

    /// Reads a length-prefixed string field, advancing `pos`.
    pub fn get_str(buf: &[u8], pos: &mut usize) -> Option<String> {
        String::from_utf8(get_bytes(buf, pos)?).ok()
    }

    /// Reads a little-endian u64, advancing `pos`.
    pub fn get_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
        let v = u64::from_le_bytes(buf.get(*pos..*pos + 8)?.try_into().ok()?);
        *pos += 8;
        Some(v)
    }
}

/// A marshalled call crossing the capsule boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IpcRequest {
    /// Interface name (string form of the [`InterfaceId`](crate::ident::InterfaceId)).
    pub interface: String,
    /// Method name.
    pub method: String,
    /// Marshalled arguments.
    pub payload: Vec<u8>,
}

/// The host's answer to a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IpcReply {
    /// Call succeeded; marshalled return value.
    Ok(Vec<u8>),
    /// Call failed inside the component with an application error.
    AppError(String),
    /// The component panicked; it is dead until respawned.
    Crashed(String),
}

struct Envelope {
    req: IpcRequest,
    reply: Sender<IpcReply>,
}

/// Skeleton-side dispatch implemented by components that can be hosted in
/// an isolated capsule. This is the analogue of a COM stub: it unmarshals
/// the payload, performs the operation, and marshals the result.
pub trait IpcDispatch: Send + Sync + 'static {
    /// Handles one marshalled call.
    ///
    /// # Errors
    ///
    /// Returns a string error to signal an application-level failure
    /// (marshalled back as [`IpcReply::AppError`]).
    fn dispatch(
        &self,
        interface: &str,
        method: &str,
        payload: &[u8],
    ) -> std::result::Result<Vec<u8>, String>;
}

/// Client half of the boundary. Proxies hold an `Arc<IpcClient>`; the
/// supervisor can swap the underlying channel on respawn without
/// invalidating outstanding proxies.
pub struct IpcClient {
    sender: RwLock<Sender<Envelope>>,
    dead: AtomicBool,
    calls: AtomicU64,
    provider: ComponentId,
}

impl IpcClient {
    /// The logical component this client talks to.
    pub fn provider(&self) -> ComponentId {
        self.provider
    }

    /// True if the hosted component has crashed and not been respawned.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Number of calls issued through this client (diagnostics).
    fn call_count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Performs a synchronous marshalled call.
    ///
    /// # Errors
    ///
    /// * [`Error::ComponentCrashed`] if the hosted component panicked
    ///   (now or previously).
    /// * [`Error::IpcFailure`] if the host thread is gone.
    pub fn call(&self, interface: &str, method: &'static str, payload: Vec<u8>) -> Result<Vec<u8>> {
        if self.is_dead() {
            return Err(Error::ComponentCrashed {
                component: self.provider,
                message: "component is down (awaiting respawn)".into(),
            });
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = bounded(1);
        let env = Envelope {
            req: IpcRequest {
                interface: interface.to_owned(),
                method: method.to_owned(),
                payload,
            },
            reply: reply_tx,
        };
        self.sender
            .read()
            .send(env)
            .map_err(|_| Error::IpcFailure {
                detail: "host channel closed".into(),
            })?;
        match reply_rx.recv() {
            Ok(IpcReply::Ok(bytes)) => Ok(bytes),
            Ok(IpcReply::AppError(msg)) => Err(Error::IpcFailure { detail: msg }),
            Ok(IpcReply::Crashed(msg)) => {
                self.dead.store(true, Ordering::Release);
                Err(Error::ComponentCrashed {
                    component: self.provider,
                    message: msg,
                })
            }
            Err(_) => Err(Error::IpcFailure {
                detail: "host dropped reply".into(),
            }),
        }
    }
}

impl fmt::Debug for IpcClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IpcClient(provider {}, dead: {}, {} calls)",
            self.provider,
            self.is_dead(),
            self.call_count()
        )
    }
}

/// Supervisor handle for a component hosted in its own isolated capsule.
pub struct IsolatedHost {
    client: Arc<IpcClient>,
    join: Option<JoinHandle<()>>,
    make: Box<dyn Fn() -> Arc<dyn IpcDispatch> + Send + Sync>,
    restarts: AtomicU64,
}

fn spawn_host_thread(target: Arc<dyn IpcDispatch>, rx: Receiver<Envelope>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(env) = rx.recv() {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                target.dispatch(&env.req.interface, &env.req.method, &env.req.payload)
            }));
            match outcome {
                Ok(Ok(bytes)) => {
                    let _ = env.reply.send(IpcReply::Ok(bytes));
                }
                Ok(Err(msg)) => {
                    let _ = env.reply.send(IpcReply::AppError(msg));
                }
                Err(panic_payload) => {
                    let msg = panic_payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| panic_payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic".to_owned());
                    // Crash semantics: report, then terminate the "process".
                    let _ = env.reply.send(IpcReply::Crashed(msg.clone()));
                    drop(rx);
                    return;
                }
            }
        }
    })
}

impl IsolatedHost {
    /// Instantiates the component via `make` and starts hosting it.
    ///
    /// `provider` is the logical component id the proxies report, so the
    /// architecture meta-model attributes bindings to the component rather
    /// than to the hosting machinery.
    pub fn spawn(
        provider: ComponentId,
        make: impl Fn() -> Arc<dyn IpcDispatch> + Send + Sync + 'static,
    ) -> Self {
        let (tx, rx) = unbounded();
        let target = make();
        let join = spawn_host_thread(target, rx);
        Self {
            client: Arc::new(IpcClient {
                sender: RwLock::new(tx),
                dead: AtomicBool::new(false),
                calls: AtomicU64::new(0),
                provider,
            }),
            join: Some(join),
            make: Box::new(make),
            restarts: AtomicU64::new(0),
        }
    }

    /// The shared client proxies should call through.
    pub fn client(&self) -> Arc<IpcClient> {
        Arc::clone(&self.client)
    }

    /// True if the hosted component is currently dead.
    pub fn is_dead(&self) -> bool {
        self.client.is_dead()
    }

    /// Times the supervisor has respawned the component.
    pub fn restart_count(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Recreates the component in a fresh host thread after a crash.
    /// Existing proxies resume working transparently — exactly the
    /// remote-management story of paper §5.
    pub fn respawn(&self) {
        let (tx, rx) = unbounded();
        let target = (self.make)();
        let join = spawn_host_thread(target, rx);
        *self.client.sender.write() = tx;
        self.client.dead.store(false, Ordering::Release);
        self.restarts.fetch_add(1, Ordering::Relaxed);
        // The previous thread has exited (crash path) or exits once its
        // channel drains; the replacement runs detached because it owns no
        // shared state beyond the channel.
        drop(join);
    }
}

impl Drop for IsolatedHost {
    fn drop(&mut self) {
        // Close the channel so the host thread exits, then reap it.
        {
            let (tx, _rx) = unbounded();
            *self.client.sender.write() = tx;
        }
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl fmt::Debug for IsolatedHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IsolatedHost(provider {}, dead: {}, restarts: {})",
            self.client.provider,
            self.is_dead(),
            self.restart_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Adder;
    impl IpcDispatch for Adder {
        fn dispatch(
            &self,
            _interface: &str,
            method: &str,
            payload: &[u8],
        ) -> std::result::Result<Vec<u8>, String> {
            match method {
                "add" => {
                    let mut pos = 0;
                    let a = wire::get_u64(payload, &mut pos).ok_or("bad a")?;
                    let b = wire::get_u64(payload, &mut pos).ok_or("bad b")?;
                    let mut out = Vec::new();
                    wire::put_u64(&mut out, a + b);
                    Ok(out)
                }
                "fail" => Err("application failure".into()),
                "crash" => panic!("boom"),
                other => Err(format!("no method `{other}`")),
            }
        }
    }

    fn host() -> IsolatedHost {
        IsolatedHost::spawn(ComponentId::from_raw(99), || Arc::new(Adder))
    }

    fn add_payload(a: u64, b: u64) -> Vec<u8> {
        let mut p = Vec::new();
        wire::put_u64(&mut p, a);
        wire::put_u64(&mut p, b);
        p
    }

    #[test]
    fn marshalled_call_roundtrip() {
        let h = host();
        let out = h
            .client()
            .call("t.IAdd", "add", add_payload(20, 22))
            .unwrap();
        let mut pos = 0;
        assert_eq!(wire::get_u64(&out, &mut pos), Some(42));
        assert_eq!(h.client().call_count(), 1);
    }

    #[test]
    fn app_errors_are_not_crashes() {
        let h = host();
        let err = h.client().call("t.IAdd", "fail", vec![]).unwrap_err();
        assert!(matches!(err, Error::IpcFailure { .. }));
        assert!(!h.is_dead());
        // Still alive afterwards.
        assert!(h.client().call("t.IAdd", "add", add_payload(1, 2)).is_ok());
    }

    #[test]
    fn crash_is_contained_and_fails_fast_until_respawn() {
        let h = host();
        let err = h.client().call("t.IAdd", "crash", vec![]).unwrap_err();
        assert!(matches!(err, Error::ComponentCrashed { .. }));
        assert!(h.is_dead());
        // Subsequent calls fail fast without touching a thread.
        let err2 = h
            .client()
            .call("t.IAdd", "add", add_payload(1, 2))
            .unwrap_err();
        assert!(matches!(err2, Error::ComponentCrashed { .. }));
        // Supervisor restarts the component; the same client works again.
        h.respawn();
        assert!(!h.is_dead());
        assert!(h.client().call("t.IAdd", "add", add_payload(2, 3)).is_ok());
        assert_eq!(h.restart_count(), 1);
    }

    #[test]
    fn wire_roundtrip_mixed_fields() {
        let mut buf = Vec::new();
        wire::put_str(&mut buf, "hello");
        wire::put_u64(&mut buf, 7);
        wire::put_bytes(&mut buf, &[1, 2, 3]);
        let mut pos = 0;
        assert_eq!(wire::get_str(&buf, &mut pos).unwrap(), "hello");
        assert_eq!(wire::get_u64(&buf, &mut pos).unwrap(), 7);
        assert_eq!(wire::get_bytes(&buf, &mut pos).unwrap(), vec![1, 2, 3]);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn wire_rejects_truncation() {
        let mut buf = Vec::new();
        wire::put_str(&mut buf, "hello");
        let mut pos = 0;
        assert!(wire::get_str(&buf[..buf.len() - 1], &mut pos).is_none());
        let mut pos2 = 0;
        assert!(wire::get_u64(&[1, 2, 3], &mut pos2).is_none());
    }

    #[test]
    fn concurrent_clients_share_host() {
        let h = Arc::new(host());
        let mut joins = Vec::new();
        for i in 0..8u64 {
            let c = h.client();
            joins.push(std::thread::spawn(move || {
                let out = c.call("t.IAdd", "add", add_payload(i, i)).unwrap();
                let mut pos = 0;
                assert_eq!(wire::get_u64(&out, &mut pos), Some(2 * i));
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(h.client().call_count(), 8);
    }
}
