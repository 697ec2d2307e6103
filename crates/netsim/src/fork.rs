//! In-memory fork support: deep-cloning a live simulator world.
//!
//! Checkpoint *restore* (PR 5) rebuilds a world by replaying its event
//! prefix; a **fork** instead deep-clones the live world in memory, so K
//! divergent futures can branch from one simulated instant without paying
//! the prefix again — the prefix-sharing analogue of KV-cache reuse in an
//! inference stack.
//!
//! Three pieces make an arbitrary world forkable:
//!
//! * [`ForkMap`] — a type-erased translation table from *old* shared-state
//!   identity (the pointer address of an `Rc`-backed handle in the parent)
//!   to the *new* handle in the fork. Layers above `netsim` (firmware
//!   containers, malware state) register their cloned handles here before
//!   the simulator clones applications, and remapping apps look their new
//!   handles up during [`Application::fork`](crate::app::Application::fork).
//! * [`ForkClone`] — clone *under a fork map*. Deliberately **not** blanket
//!   implemented for `Clone`: a plain `Clone` of an `Rc`-backed handle would
//!   alias the parent's state, which is exactly the bug a fork must avoid.
//!   Plain-data types implement it as `Clone`; handle types implement it as
//!   a [`ForkMap`] lookup.
//! * [`ForkableCall`] / [`ForkableFn`] — scheduled simulator callbacks. A
//!   boxed `FnOnce` cannot be cloned, so scheduled work is expressed as
//!   plain data plus a `fn` pointer; forking clones the data through the
//!   map.

use crate::fastmap::FastMap;
use crate::ids::{AppId, ChannelId, IfaceId, LinkId, NodeId};
use crate::sim::Simulator;
use crate::tcp::ConnId;
use crate::time::SimTime;
use std::any::Any;
use std::cell::RefCell;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Translation table from parent-world shared-state identity to the
/// fork's replacement handles.
///
/// Keys are opaque `usize` identities — by convention the address of the
/// parent's `Rc` allocation (`Rc::as_ptr(..) as usize`), which is unique
/// per live allocation. Values are type-erased boxed handles; [`get`]
/// downcasts back to the concrete handle type and clones it.
///
/// [`get`]: ForkMap::get
#[derive(Default)]
pub struct ForkMap {
    entries: RefCell<FastMap<usize, Box<dyn Any>>>,
}

impl std::fmt::Debug for ForkMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForkMap").field("entries", &self.len()).finish()
    }
}

impl ForkMap {
    /// An empty map.
    pub fn new() -> Self {
        ForkMap::default()
    }

    /// Registers `value` as the fork's replacement for the parent handle
    /// identified by `key`. Later registrations overwrite earlier ones.
    pub fn register<T: Any>(&mut self, key: usize, value: T) {
        self.entries.get_mut().insert(key, Box::new(value));
    }

    /// Looks up the replacement handle registered under `key`, cloning it
    /// out. `None` when the key is unknown or registered at another type.
    pub fn get<T: Any + Clone>(&self, key: usize) -> Option<T> {
        self.entries.borrow().get(&key).and_then(|v| v.downcast_ref::<T>()).cloned()
    }

    /// Looks up `key`, or registers what `make` returns under it first:
    /// state that several pending events share forks to one shared copy,
    /// made by whichever of them is cloned first.
    pub fn get_or_register<T: Any + Clone>(&self, key: usize, make: impl FnOnce() -> T) -> T {
        if let Some(value) = self.get(key) {
            return value;
        }
        // `make` may look other handles up, so no borrow is held across it.
        let value = make();
        self.entries.borrow_mut().insert(key, Box::new(value.clone()));
        value
    }

    /// Number of registered translations.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether no translations are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Clone under a fork map.
///
/// Plain data clones as itself; `Rc`-backed handles translate through the
/// map so the fork never aliases parent state. There is intentionally no
/// `impl<T: Clone> ForkClone for T`: that blanket impl would give handle
/// types aliasing semantics silently.
pub trait ForkClone: Sized {
    /// Produces this value's counterpart in the forked world.
    fn fork_clone(&self, map: &ForkMap) -> Self;
}

macro_rules! plain_fork_clone {
    ($($t:ty),* $(,)?) => {$(
        impl ForkClone for $t {
            fn fork_clone(&self, _map: &ForkMap) -> Self {
                self.clone()
            }
        }
    )*};
}

plain_fork_clone!(
    (),
    bool,
    u8,
    u16,
    u32,
    u64,
    usize,
    i64,
    f64,
    String,
    Duration,
    SimTime,
    IpAddr,
    Ipv4Addr,
    Ipv6Addr,
    SocketAddr,
    NodeId,
    LinkId,
    AppId,
    ChannelId,
    IfaceId,
    ConnId,
);

// Arc-shared data is immutable by convention in this workspace (payload
// bodies, program tables); sharing it across forks is correct and cheap.
impl<T: ?Sized> ForkClone for Arc<T> {
    fn fork_clone(&self, _map: &ForkMap) -> Self {
        Arc::clone(self)
    }
}

// An `Rc`-shared list is read-only by convention, like `Arc` data above,
// but may hold handles: it forks to one translated copy per world, which
// every holder in the fork shares.
impl<T: ForkClone + 'static> ForkClone for Rc<[T]> {
    fn fork_clone(&self, map: &ForkMap) -> Self {
        map.get_or_register(Rc::as_ptr(self).cast::<()>() as usize, || {
            self.iter().map(|v| v.fork_clone(map)).collect()
        })
    }
}

impl<T: ForkClone> ForkClone for Option<T> {
    fn fork_clone(&self, map: &ForkMap) -> Self {
        self.as_ref().map(|v| v.fork_clone(map))
    }
}

impl<T: ForkClone> ForkClone for Vec<T> {
    fn fork_clone(&self, map: &ForkMap) -> Self {
        self.iter().map(|v| v.fork_clone(map)).collect()
    }
}

impl<A: ForkClone, B: ForkClone> ForkClone for (A, B) {
    fn fork_clone(&self, map: &ForkMap) -> Self {
        (self.0.fork_clone(map), self.1.fork_clone(map))
    }
}

impl<A: ForkClone, B: ForkClone, C: ForkClone> ForkClone for (A, B, C) {
    fn fork_clone(&self, map: &ForkMap) -> Self {
        (self.0.fork_clone(map), self.1.fork_clone(map), self.2.fork_clone(map))
    }
}

impl<A: ForkClone, B: ForkClone, C: ForkClone, D: ForkClone> ForkClone for (A, B, C, D) {
    fn fork_clone(&self, map: &ForkMap) -> Self {
        (
            self.0.fork_clone(map),
            self.1.fork_clone(map),
            self.2.fork_clone(map),
            self.3.fork_clone(map),
        )
    }
}

/// A pending simulator callback that can be deep-cloned into a fork.
///
/// State is explicit data, behaviour is a plain `fn` pointer, and
/// [`fork`] clones the data through the [`ForkMap`].
///
/// [`fork`]: ForkableCall::fork
pub trait ForkableCall: Any {
    /// Runs the callback, consuming it.
    fn call(self: Box<Self>, sim: &mut Simulator);
    /// Clones the pending callback into the forked world.
    fn fork(&self, map: &ForkMap) -> Box<dyn ForkableCall>;
    /// Stable label folded into event-queue digests, so a forked queue
    /// digests identically to its parent.
    fn digest_label(&self) -> &'static str;
}

impl std::fmt::Debug for dyn ForkableCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ForkableCall({})", self.digest_label())
    }
}

/// The one production [`ForkableCall`] shape: captured data plus a `fn`
/// pointer. Built by [`Simulator::schedule_forkable_call`].
///
/// [`Simulator::schedule_forkable_call`]: crate::Simulator::schedule_forkable_call
pub struct ForkableFn<T: ForkClone + 'static> {
    /// Captured state, cloned through the fork map on fork.
    pub data: T,
    /// The behaviour; `fn` pointers are `Copy`, so forking shares it.
    pub f: fn(&mut Simulator, T),
    /// Stable digest label (see [`ForkableCall::digest_label`]).
    pub label: &'static str,
}

impl<T: ForkClone + 'static> std::fmt::Debug for ForkableFn<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ForkableFn({})", self.label)
    }
}

impl<T: ForkClone + 'static> ForkableCall for ForkableFn<T> {
    fn call(self: Box<Self>, sim: &mut Simulator) {
        (self.f)(sim, self.data);
    }

    fn fork(&self, map: &ForkMap) -> Box<dyn ForkableCall> {
        Box::new(ForkableFn { data: self.data.fork_clone(map), f: self.f, label: self.label })
    }

    fn digest_label(&self) -> &'static str {
        self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Handle(Rc<u32>);

    impl ForkClone for Handle {
        fn fork_clone(&self, map: &ForkMap) -> Self {
            map.get::<Handle>(Rc::as_ptr(&self.0) as usize)
                .expect("handle registered before fork")
        }
    }

    #[test]
    fn map_round_trips_typed_handles() {
        let old = Handle(Rc::new(7));
        let new = Handle(Rc::new(7));
        let mut map = ForkMap::new();
        let key = Rc::as_ptr(&old.0) as usize;
        map.register(key, new.clone());
        let got = old.fork_clone(&map);
        assert!(Rc::ptr_eq(&got.0, &new.0), "lookup returns the registered handle");
        assert!(!Rc::ptr_eq(&got.0, &old.0), "fork must not alias the parent");
        assert!(map.get::<u32>(key).is_none(), "wrong type does not downcast");
        assert!(map.get::<Handle>(key + 1).is_none(), "unknown key misses");
    }

    #[test]
    fn containers_and_tuples_fork_elementwise() {
        let map = ForkMap::new();
        let v: Vec<(u64, String)> = vec![(1, "a".into()), (2, "b".into())];
        assert_eq!(v.fork_clone(&map), v);
        let o: Option<(bool, f64, u32)> = Some((true, 0.5, 9));
        assert_eq!(o.fork_clone(&map), o);
    }

    #[test]
    fn a_shared_list_forks_to_one_translated_copy() {
        let old = Handle(Rc::new(7));
        let new = Handle(Rc::new(7));
        let mut map = ForkMap::new();
        map.register(Rc::as_ptr(&old.0) as usize, new.clone());
        let list: Rc<[Handle]> = vec![old.clone(), old].into();
        let (a, b) = (list.fork_clone(&map), Rc::clone(&list).fork_clone(&map));
        assert!(Rc::ptr_eq(&a, &b), "every holder in the fork shares one copy");
        assert!(!Rc::ptr_eq(&a, &list), "the copy is the fork's own");
        assert!(a.iter().all(|h| Rc::ptr_eq(&h.0, &new.0)), "elements translate");
    }

    #[test]
    fn forkable_fn_clones_data_and_shares_behaviour() {
        let call = ForkableFn {
            data: 41u64,
            f: |_sim: &mut Simulator, _n: u64| {},
            label: "test",
        };
        let forked = call.fork(&ForkMap::new());
        assert_eq!(forked.digest_label(), "test");
    }
}
