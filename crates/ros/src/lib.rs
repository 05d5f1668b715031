//! A ROS-like publish/subscribe middleware running in virtual time.
//!
//! Autoware is a graph of *nodes* exchanging messages through named
//! *topics*. Three properties of that middleware drive the paper's results,
//! and all three are modeled here:
//!
//! 1. **Bounded subscription queues with newest-wins drops.** Perception
//!    subscribers use queue size 1; when a node is still busy with the
//!    previous message and a second one arrives, the older queued message is
//!    discarded and counted — the mechanism behind Table III (16.3% of
//!    `/image_raw` dropped at SSD512's input).
//! 2. **One callback at a time per node.** A node is a single-threaded
//!    spinner: its processing serializes, so per-node latency includes the
//!    time an input waits for the previous callback to finish.
//! 3. **Header lineage.** Every message carries the acquisition timestamps
//!    of the sensor inputs it (transitively) derives from, exactly like the
//!    authors "track down the header information of the messages ... passed
//!    along the subscribe-publish mechanism". End-to-end computation-path
//!    latency (Fig 6) is read off this lineage at the terminal nodes.
//!
//! Node callbacks run their *real* algorithm immediately (producing the
//! output payload), then occupy the modeled CPU/GPU for their declared
//! [`Execution`] phases; outputs are published at the modeled completion
//! time. See [`Bus`] for the entry point.

#![warn(missing_docs)]

mod bus;
mod lineage;
mod msg;
mod node;
mod observer;

pub use bus::{Bus, DropStats, EdgeFaultKind, RestoredContinuation, SubscriptionSpec, TopicStats};
pub use lineage::{Lineage, Source};
pub use msg::{Header, Message};
pub use node::{Execution, Node, Outbox, Phase};
pub use observer::{BusObserver, FanoutObserver, FaultKind, NullObserver, ProcessedEvent};
