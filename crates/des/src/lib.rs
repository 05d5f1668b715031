//! A deterministic, single-threaded discrete-event simulation engine.
//!
//! The entire characterization stack executes in *virtual time* on this
//! engine: sensor ticks, node callbacks, CPU/GPU task completions and
//! middleware deliveries are all events on one priority queue. Running an
//! 8-minute drive therefore takes wall-clock seconds and is bit-for-bit
//! reproducible — the property the paper gets from replaying the same
//! ROSBAG, we get from a seeded simulator.
//!
//! # Design
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual clock.
//! * [`Sim`] — a cheaply clonable handle to the shared event queue.
//!   Components (the topic bus, the platform model, sensor drivers) keep a
//!   `Sim` clone and schedule closures; closures capture `Rc` handles to
//!   whatever state they need.
//! * Events at equal timestamps fire by urgency key, then scheduling
//!   order — under the default FIFO policy every key is 0, so the order
//!   is pure scheduling order and runs are deterministic. Pluggable
//!   [`sched`] policies (priority / EDF / chain-aware) reorder only
//!   same-instant events, never across distinct timestamps.
//! * [`RngStreams`] — named, independently seeded random streams, so adding
//!   a new consumer of randomness never perturbs existing streams.
//!
//! # Example
//!
//! ```
//! use av_des::{Sim, SimDuration};
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let sim = Sim::new();
//! let hits = Rc::new(Cell::new(0));
//! let h = Rc::clone(&hits);
//! sim.schedule_in(SimDuration::from_millis(5), move || h.set(h.get() + 1));
//! sim.run();
//! assert_eq!(hits.get(), 1);
//! assert_eq!(sim.now(), av_des::SimTime::from_millis(5));
//! ```

#![warn(missing_docs)]

mod exp;
mod rng;
pub mod sched;
mod sim;
mod snap;
mod time;

pub use exp::{exp_sub_each, inline_exp_selected};
pub use rng::{RngStreams, StreamRng};
pub use sched::{ReadyItem, SchedPolicy, SchedPolicyKind};
pub use sim::{EventHandle, Sim};
pub use snap::{Leaf, Snap, SnapError, SnapReader, SnapWriter};
pub use time::{SimDuration, SimTime};
