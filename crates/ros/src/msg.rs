//! Messages and headers.

use crate::Lineage;
use av_des::{Leaf, SimTime, SnapError, SnapReader, SnapWriter};
use std::rc::Rc;

/// Message metadata, mirroring ROS's `std_msgs/Header`.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Per-topic sequence number, assigned at publish.
    pub seq: u64,
    /// Publish time (virtual).
    pub stamp: SimTime,
    /// Sensor ancestry, used for end-to-end path latency.
    pub lineage: Lineage,
}

/// A published message: header plus shared payload.
///
/// The payload is reference-counted so fan-out to several subscribers does
/// not copy data; ROS's intra-process transport has the same property.
#[derive(Debug)]
pub struct Message<M> {
    /// Metadata.
    pub header: Header,
    /// The payload, shared between subscribers.
    pub payload: Rc<M>,
}

impl<M> Clone for Message<M> {
    fn clone(&self) -> Message<M> {
        Message { header: self.header.clone(), payload: Rc::clone(&self.payload) }
    }
}

impl<M> Message<M> {
    /// Creates a message.
    pub fn new(header: Header, payload: M) -> Message<M> {
        Message { header, payload: Rc::new(payload) }
    }
}

/// Checkpoint encoding: the header's sequence number, stamp and lineage,
/// then the payload.
impl<M: Leaf> Leaf for Message<M> {
    fn put(&self, w: &mut SnapWriter) {
        self.header.seq.put(w);
        self.header.stamp.put(w);
        self.header.lineage.put(w);
        self.payload.put(w);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Message<M>, SnapError> {
        let header =
            Header { seq: u64::get(r)?, stamp: SimTime::get(r)?, lineage: Lineage::get(r)? };
        Ok(Message::new(header, M::get(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Source;

    #[test]
    fn clone_shares_payload() {
        let msg = Message::new(
            Header {
                seq: 1,
                stamp: SimTime::from_millis(10),
                lineage: Lineage::origin(Source::Lidar, SimTime::from_millis(10)),
            },
            vec![1u8, 2, 3],
        );
        let copy = msg.clone();
        assert!(Rc::ptr_eq(&msg.payload, &copy.payload));
        assert_eq!(copy.header.seq, 1);
    }
}
