//! Plain `u64` counter sets, each declared once with [`counters!`]: the
//! one field list gives the struct, its merge, its report and its total.
//!
//! These are the protocol, fabric and fault counters the figures read
//! (`chain_hops_sum / chain_samples` is Figure 9's chain length). They are
//! ordinary fields bumped with `+= 1`, compiled in whether or not the
//! `enabled` feature is, and folded into a [`Report`] only at report time.
//!
//! [`counters!`]: crate::counters

use std::fmt;

use crate::Report;

/// A set of `u64` counters that sum: every event is counted on exactly one
/// worker (for a protocol, the one owning the acting node), so merging the
/// per-worker sets reproduces the one-worker totals. Implemented by
/// [`counters!`](crate::counters).
pub trait Counters: Copy + Default + fmt::Debug {
    /// Adds another counter set into this one, field by field.
    fn merge(&mut self, other: &Self);

    /// Adds every field to the counter of its metric name under `layer`.
    fn report(&self, out: &mut Report, layer: &str);

    /// Sum of all fields.
    fn total(&self) -> u64;
}

/// Declares a struct of `pub u64` counters and implements [`Counters`]
/// for it from that single field list.
///
/// Attributes and docs on the struct and on each field pass through. A
/// field reports under its own name, or under the metric name written
/// after `=`:
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
/// let mut out = Report::new();
/// a.report(&mut out, "engine");
/// assert_eq!(out.get("engine", "rvp_relays"), Some(&MetricValue::Counter(5)));
/// assert_eq!(out.get("engine", "pings_sent"), Some(&MetricValue::Counter(1)));
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$field_meta:meta])* $field:ident $(= $metric:literal)?, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
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
        }
    };
    (@metric $field:ident) => { stringify!($field) };
    (@metric $field:ident $metric:literal) => { $metric };
}
