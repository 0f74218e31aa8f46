//! Named counters: what a component has counted, readable by name.
//!
//! A component type declares its counters once, with [`counters!`](crate::counters!). The
//! declaration gives the counters' names, their indices (declaration
//! order) and the named struct of `u64` fields its `stats()` returns.
//! That struct is also the **tally**: a batch counts into a copy on the
//! stack and hands it to [`Counters::flush`], one relaxed add per
//! counter it touched — so a batch counts the same whole or packet by
//! packet.
//!
//! The atomic cells, a [`Counters`] set, live in the component's
//! [`ComponentCore`](crate::component::ComponentCore), so
//! [`Counters::visit`] reads any component's counters by name without
//! knowing its kind: a walk over a capsule's architecture meta-model
//! needs nothing else. A component with no counters holds an empty set,
//! which allocates nothing.
//!
//! ```
//! use opencom::component::{ComponentCore, ComponentDescriptor};
//! use opencom::ident::Version;
//!
//! opencom::counters! {
//!     /// What a demo element counted.
//!     struct DemoStats {
//!         /// Packets sent on.
//!         passed,
//!         /// Packets dropped.
//!         dropped,
//!     }
//! }
//!
//! let core = ComponentCore::new(ComponentDescriptor::new("demo.Element", Version::new(1, 0, 0)))
//!     .counting::<DemoStats>();
//! core.counters().flush(DemoStats { passed: 3, dropped: 1 }); // one batch
//! assert_eq!(core.counters().read::<DemoStats>(), DemoStats { passed: 3, dropped: 1 });
//! let mut seen = Vec::new();
//! core.counters().visit(&mut |name, value| seen.push(format!("{name} {value}")));
//! assert_eq!(seen, ["passed 3", "dropped 1"]);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A component type's counters as a struct of `u64` fields, declared by
/// [`counters!`](crate::counters!): the named read and the per-batch tally. `()` is the
/// empty set.
pub trait Tally: Copy + Default + 'static {
    /// The counters' names; a counter's index is its position here.
    const NAMES: &'static [&'static str];

    /// Calls `f` with each counter's index and field, in order.
    fn each(&mut self, f: impl FnMut(usize, &mut u64));
}

impl Tally for () {
    const NAMES: &'static [&'static str] = &[];

    #[inline]
    fn each(&mut self, _: impl FnMut(usize, &mut u64)) {}
}

/// Declares a component type's counters once: a `Copy`, `Debug`,
/// `Default`, `Eq` struct of `pub u64` fields implementing [`Tally`],
/// whose field names and order are the counters' names and indices.
/// Attributes on the struct and its fields carry over. See the
/// [module docs](self).
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$field_meta:meta])* $field:ident ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$field_meta])* pub $field: u64, )+
        }

        impl $crate::counters::Tally for $name {
            const NAMES: &'static [&'static str] = &[$(stringify!($field)),+];

            #[inline]
            fn each(&mut self, mut f: impl FnMut(usize, &mut u64)) {
                for (i, field) in [$(&mut self.$field),+].into_iter().enumerate() {
                    f(i, field);
                }
            }
        }
    };
}

/// A component's counter set: one relaxed [`AtomicU64`] per name its
/// [`Tally`] type declares.
pub struct Counters {
    names: &'static [&'static str],
    cells: Box<[AtomicU64]>,
}

impl Counters {
    /// A zeroed set with `T`'s counters. The empty set (`T = ()`)
    /// allocates nothing.
    pub(crate) fn of<T: Tally>() -> Self {
        Self {
            names: T::NAMES,
            cells: T::NAMES.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Adds a batch's tally: one relaxed add per counter it touched.
    /// `T` must be the type the set was made with.
    #[inline]
    pub fn flush<T: Tally>(&self, mut tally: T) {
        debug_assert_eq!(self.names, T::NAMES, "a tally of another counter set");
        tally.each(|i, n| {
            if *n != 0 {
                self.cells[i].fetch_add(*n, Ordering::Relaxed);
            }
        });
    }

    /// The counters' values, by name. `T` must be the type the set was
    /// made with.
    #[inline]
    pub fn read<T: Tally>(&self) -> T {
        debug_assert_eq!(self.names, T::NAMES, "a read of another counter set");
        let mut values = T::default();
        values.each(|i, v| *v = self.cells[i].load(Ordering::Relaxed));
        values
    }

    /// Calls `f` with each counter's name and value, in order: the read
    /// that needs no knowledge of the component's kind.
    pub fn visit(&self, f: &mut dyn FnMut(&str, u64)) {
        for (name, cell) in self.names.iter().zip(self.cells.iter()) {
            f(name, cell.load(Ordering::Relaxed));
        }
    }
}

/// Renders the set as a map from name to value.
impl fmt::Debug for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let values = self.cells.iter().map(|c| c.load(Ordering::Relaxed));
        f.debug_map()
            .entries(self.names.iter().zip(values))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counters! {
        struct Two {
            first,
            second,
        }
    }

    #[test]
    fn flush_adds_each_touched_counter_and_read_names_them() {
        let set = Counters::of::<Two>();
        set.flush(Two {
            first: 2,
            second: 0,
        });
        set.flush(Two {
            first: 1,
            second: 5,
        });
        assert_eq!(
            set.read::<Two>(),
            Two {
                first: 3,
                second: 5
            }
        );
        let mut seen = Vec::new();
        set.visit(&mut |name, v| seen.push((name.to_owned(), v)));
        assert_eq!(seen, [("first".to_owned(), 3), ("second".to_owned(), 5)]);
        assert_eq!(format!("{set:?}"), r#"{"first": 3, "second": 5}"#);
    }

    #[test]
    fn the_empty_set_visits_nothing() {
        let set = Counters::of::<()>();
        set.flush(());
        set.visit(&mut |name, _| panic!("visited {name}"));
        assert_eq!(format!("{set:?}"), "{}");
    }
}
