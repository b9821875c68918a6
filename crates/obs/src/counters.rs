//! Plain `u64` counter sets, each declared once: the one list gives the
//! type, its merge, its report, its total and its difference.
//!
//! [`counters!`] declares a struct with one named field per counter. These
//! are the protocol, fabric and fault counters the figures read
//! (`chain_hops_sum / chain_samples` is Figure 9's chain length): ordinary
//! fields bumped with `+= 1`.
//!
//! [`keyed_counters!`] declares a set indexed by an enum instead: one list
//! of keys, each with its doc, display text and metric name, gives the
//! enum, its `Display` and the `u64` set (`bump(key)`, `set[key]`). The
//! fabric's drop reasons and the live path's counters are keyed sets.
//!
//! Both kinds are folded into a [`Report`] only at report time.
//!
//! [`counters!`]: crate::counters
//! [`keyed_counters!`]: crate::keyed_counters

use std::fmt;

use crate::Report;

/// A set of `u64` counters that sum: every event is counted on exactly one
/// worker (for a protocol, the one owning the acting node), so merging the
/// per-worker sets reproduces the one-worker totals. Implemented by
/// [`counters!`](crate::counters) and
/// [`keyed_counters!`](crate::keyed_counters).
pub trait Counters: Copy + Default + fmt::Debug {
    /// Adds another counter set into this one, counter by counter.
    fn merge(&mut self, other: &Self);

    /// Adds every counter to the counter of its metric name under `layer`,
    /// in declaration order.
    fn report(&self, out: &mut Report, layer: &str);

    /// Sum of all counters.
    fn total(&self) -> u64;

    /// Counter-wise difference `self - earlier`; saturates at zero.
    fn since(&self, earlier: &Self) -> Self;
}

/// Declares a struct of `pub u64` counters and implements [`Counters`]
/// for it from that single field list.
///
/// The struct keeps the visibility it is declared with, its fields are
/// `pub`, and attributes and docs on both pass through. A field reports
/// under its own name, or under the metric name written after `=`:
///
/// ```
/// use nylon_obs::{Counters, MetricValue, Report};
///
/// nylon_obs::counters! {
///     /// Relay counters.
///     pub struct RelayStats {
///         /// Messages relayed.
///         relays = "rvp_relays",
///         /// Keep-alives sent.
///         pings_sent,
///     }
/// }
///
/// let mut a = RelayStats { relays: 2, pings_sent: 1 };
/// a.merge(&RelayStats { relays: 3, pings_sent: 0 });
/// assert_eq!(a.total(), 6);
/// let earlier = RelayStats { relays: 1, pings_sent: 4 };
/// assert_eq!(a.since(&earlier), RelayStats { relays: 4, pings_sent: 0 }, "saturates at zero");
/// let mut out = Report::new();
/// a.report(&mut out, "engine");
/// assert_eq!(out.get("engine", "rvp_relays"), Some(&MetricValue::Counter(5)));
/// assert_eq!(out.get("engine", "pings_sent"), Some(&MetricValue::Counter(1)));
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$field_meta:meta])* $field:ident $(= $metric:literal)?, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$field_meta])* pub $field: u64, )*
        }

        impl $crate::Counters for $name {
            fn merge(&mut self, other: &Self) {
                $( self.$field += other.$field; )*
            }

            fn report(&self, out: &mut $crate::Report, layer: &str) {
                $( out.counter(layer, $crate::counters!(@metric $field $($metric)?), self.$field); )*
            }

            fn total(&self) -> u64 {
                0 $( + self.$field )*
            }

            fn since(&self, earlier: &Self) -> Self {
                $name { $( $field: self.$field.saturating_sub(earlier.$field), )* }
            }
        }
    };
    (@metric $field:ident) => { stringify!($field) };
    (@metric $field:ident $metric:literal) => { $metric };
}

/// Declares an enum of keys and a `u64` counter set indexed by it, and
/// implements [`Counters`] for the set, from one list of keys.
///
/// Each key is written once, with its doc, its display text and its metric
/// name: `Key = "display text" => "metric_name"`. The declaration gives
///
/// - the enum (`Debug`, `Copy`, `Eq`, `Hash`), its `ALL` keys and `COUNT`
///   in declaration order, its [`Display`](std::fmt::Display) text and its
///   `metric()` name;
/// - the set: `bump(key)` adds one, `set[key]` reads a count, and
///   `merge`, `report`, `total` and `since` walk the keys in declaration
///   order.
///
/// ```
/// use nylon_obs::{Counters, MetricValue, Report};
///
/// nylon_obs::keyed_counters! {
///     /// Why a frame was discarded.
///     pub enum Discard {
///         /// The frame did not parse.
///         Malformed = "malformed frame" => "drop_malformed",
///         /// Nobody listens at the destination.
///         NoRoute = "no route" => "drop_no_route",
///     }
///     /// Discarded frames by reason.
///     pub struct Discards;
/// }
///
/// let mut d = Discards::default();
/// d.bump(Discard::NoRoute);
/// d.bump(Discard::NoRoute);
/// assert_eq!((d[Discard::Malformed], d[Discard::NoRoute], d.total()), (0, 2, 2));
/// assert_eq!(Discard::NoRoute.to_string(), "no route");
///
/// let mut out = Report::new();
/// d.report(&mut out, "emulator");
/// assert_eq!(out.get("emulator", "drop_no_route"), Some(&MetricValue::Counter(2)));
/// assert_eq!(out.get("emulator", "drop_malformed"), Some(&MetricValue::Counter(0)));
/// ```
#[macro_export]
macro_rules! keyed_counters {
    (
        $(#[$key_meta:meta])*
        $key_vis:vis enum $key:ident {
            $( $(#[$variant_meta:meta])* $variant:ident = $text:literal => $metric:literal, )+
        }
        $(#[$set_meta:meta])*
        $set_vis:vis struct $set:ident;
    ) => {
        $(#[$key_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        $key_vis enum $key {
            $( $(#[$variant_meta])* $variant, )+
        }

        impl $key {
            /// Number of keys.
            pub const COUNT: usize = [$( $metric ),+].len();
            /// Every key, in declaration order.
            pub const ALL: [$key; $key::COUNT] = [$( $key::$variant ),+];

            /// The metric name this key's counter reports under.
            pub const fn metric(self) -> &'static str {
                [$( $metric ),+][self as usize]
            }
        }

        impl ::std::fmt::Display for $key {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str([$( $text ),+][*self as usize])
            }
        }

        $(#[$set_meta])*
        #[derive(Clone, Copy, PartialEq, Eq)]
        $set_vis struct $set([u64; $key::COUNT]);

        impl $set {
            /// Counts one event of `key`.
            #[inline]
            pub fn bump(&mut self, key: $key) {
                self.add(key, 1);
            }

            /// Adds `n` to the counter of `key`.
            #[inline]
            pub fn add(&mut self, key: $key, n: u64) {
                self.0[key as usize] += n;
            }
        }

        impl ::std::default::Default for $set {
            fn default() -> Self {
                $set([0; $key::COUNT])
            }
        }

        impl ::std::ops::Index<$key> for $set {
            type Output = u64;

            fn index(&self, key: $key) -> &u64 {
                &self.0[key as usize]
            }
        }

        impl ::std::fmt::Debug for $set {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                let mut s = f.debug_struct(stringify!($set));
                for key in $key::ALL {
                    s.field(key.metric(), &self[key]);
                }
                s.finish()
            }
        }

        impl $crate::Counters for $set {
            fn merge(&mut self, other: &Self) {
                for (a, b) in self.0.iter_mut().zip(other.0) {
                    *a += b;
                }
            }

            fn report(&self, out: &mut $crate::Report, layer: &str) {
                for key in $key::ALL {
                    out.counter(layer, key.metric(), self[key]);
                }
            }

            fn total(&self) -> u64 {
                self.0.iter().sum()
            }

            fn since(&self, earlier: &Self) -> Self {
                $set(::std::array::from_fn(|i| self.0[i].saturating_sub(earlier.0[i])))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{Counters, MetricValue, Report};

    crate::keyed_counters! {
        /// Test keys, declared out of alphabetical order.
        enum Fate {
            /// Arrived.
            Delivered = "delivered" => "fate_delivered",
            /// Lost on the way.
            Lost = "lost in transit" => "fate_lost",
            /// Refused at the door.
            Filtered = "filtered" => "fate_filtered",
        }
        /// Fates by key.
        struct Fates;
    }

    #[test]
    fn keyed_sets_count_merge_and_report_by_key_in_declaration_order() {
        let mut a = Fates::default();
        a.bump(Fate::Lost);
        a.bump(Fate::Filtered);
        a.bump(Fate::Filtered);
        assert_eq!((a[Fate::Delivered], a[Fate::Lost], a[Fate::Filtered]), (0, 1, 2));
        assert_eq!(a.total(), 3);

        let mut b = Fates::default();
        b.bump(Fate::Delivered);
        b.bump(Fate::Lost);
        let before = a;
        a.merge(&b);
        assert_eq!((a[Fate::Delivered], a[Fate::Lost], a[Fate::Filtered]), (1, 2, 2));
        assert_eq!(a.total(), before.total() + b.total());
        assert_eq!(a.since(&before), b);
        assert_eq!(before.since(&a), Fates::default(), "differences saturate at zero");

        assert_eq!(Fate::ALL, [Fate::Delivered, Fate::Lost, Fate::Filtered]);
        assert_eq!(Fate::COUNT, 3);
        let metrics: Vec<&str> = Fate::ALL.iter().map(|k| k.metric()).collect();
        assert_eq!(metrics, ["fate_delivered", "fate_lost", "fate_filtered"]);
        let texts: Vec<String> = Fate::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(texts, ["delivered", "lost in transit", "filtered"]);
        assert_eq!(
            format!("{a:?}"),
            "Fates { fate_delivered: 1, fate_lost: 2, fate_filtered: 2 }",
            "Debug walks the keys in declaration order"
        );

        let mut out = Report::new();
        a.report(&mut out, "fabric");
        let reported: Vec<(String, u64)> = out
            .iter()
            .map(|(_, m, v)| match v {
                MetricValue::Counter(c) => (m.to_string(), *c),
                other => panic!("{m} reported as {other:?}"),
            })
            .collect();
        let mut expected: Vec<(String, u64)> =
            Fate::ALL.iter().map(|k| (k.metric().to_string(), a[*k])).collect();
        expected.sort();
        assert_eq!(reported, expected, "one counter per key, none other");
    }
}
