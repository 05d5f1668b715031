//! The latency recorder: a bus observer implementing the paper's two
//! latency measurements.

use crate::Distribution;
use av_des::{SimTime, Snap};
use av_ros::{BusObserver, ProcessedEvent, Source};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Declares one *computation path* (paper Table IV): latency is measured
/// from the `source` sensor's acquisition stamp (read from message
/// lineage) to the moment `sink_node` publishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSpec {
    /// Path name (e.g. `costmap_vision_obj`).
    pub name: String,
    /// Terminal node of the path.
    pub sink_node: String,
    /// The sensor whose acquisition time anchors the measurement.
    pub source: Source,
}

impl PathSpec {
    /// Creates a path spec.
    pub fn new(name: impl Into<String>, sink_node: impl Into<String>, source: Source) -> PathSpec {
        PathSpec { name: name.into(), sink_node: sink_node.into(), source }
    }
}

/// Records single-node latencies and end-to-end path latencies.
///
/// Install via [`SharedRecorder`] so the caller keeps access:
///
/// ```no_run
/// use av_profiling::{LatencyRecorder, PathSpec, SharedRecorder};
/// use av_ros::Source;
/// # let bus: av_ros::Bus<u64> = unimplemented!();
/// let recorder = SharedRecorder::new(LatencyRecorder::new(vec![
///     PathSpec::new("localization", "ndt_matching", Source::Lidar),
/// ]));
/// bus.set_shared_observer(recorder.observer());
/// // ... run the simulation ...
/// let summary = recorder.borrow().node_summary("ndt_matching");
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    specs: Vec<PathSpec>,
    node_latency: HashMap<String, Distribution>,
    node_queue_wait: HashMap<String, Distribution>,
    path_latency: HashMap<String, Distribution>,
    drops: HashMap<(String, String), u64>,
}

impl LatencyRecorder {
    /// Creates a recorder tracing the given computation paths.
    pub fn new(specs: Vec<PathSpec>) -> LatencyRecorder {
        LatencyRecorder { specs, ..LatencyRecorder::default() }
    }

    /// Single-node latency distribution (callback start → output ready),
    /// ms.
    pub fn node_latencies(&self, node: &str) -> Option<&Distribution> {
        self.node_latency.get(node)
    }

    /// Subscription queue-wait distribution (arrival → callback start),
    /// ms.
    pub fn node_queue_wait(&self, node: &str) -> Option<&Distribution> {
        self.node_queue_wait.get(node)
    }

    /// Path latency distribution, ms.
    pub fn path_latencies(&self, path: &str) -> Option<&Distribution> {
        self.path_latency.get(path)
    }

    /// Summary of a node's latency ([`crate::Summary::empty`] if unseen).
    pub fn node_summary(&self, node: &str) -> crate::Summary {
        self.node_latency.get(node).map(|d| d.summary()).unwrap_or_else(crate::Summary::empty)
    }

    /// Summary of a path's latency.
    pub fn path_summary(&self, path: &str) -> crate::Summary {
        self.path_latency.get(path).map(|d| d.summary()).unwrap_or_else(crate::Summary::empty)
    }

    /// Node names observed, sorted.
    pub fn nodes(&self) -> Vec<String> {
        let mut names: Vec<String> = self.node_latency.keys().cloned().collect();
        names.sort();
        names
    }

    /// Path names configured, in spec order.
    pub fn paths(&self) -> Vec<String> {
        self.specs.iter().map(|s| s.name.clone()).collect()
    }

    /// Drop counts observed via the observer, keyed `(topic, node)`.
    pub fn observed_drops(&self) -> &HashMap<(String, String), u64> {
        &self.drops
    }

    /// The *end-to-end latency* of the perception stack, defined as in the
    /// paper: "the computation path that takes the longest time to
    /// finish" — the worst mean across configured paths, with its name.
    pub fn worst_path_by_mean(&self) -> Option<(String, crate::Summary)> {
        self.specs
            .iter()
            .filter_map(|s| self.path_latency.get(&s.name).map(|d| (s.name.clone(), d.summary())))
            .max_by(|a, b| a.1.mean.total_cmp(&b.1.mean))
    }

    /// Saves or restores the recorded distributions as a checkpoint
    /// section, replacing current contents on load.
    ///
    /// Path specs are *not* saved — they are rebuilt from the run
    /// configuration at resume, and only the accumulated samples are
    /// state. Maps are saved in sorted key order so the encoding is
    /// byte-deterministic.
    pub fn snap(&mut self, s: &mut Snap<'_>) {
        s.tag("latency");
        for map in [&mut self.node_latency, &mut self.node_queue_wait, &mut self.path_latency] {
            s.map(map, |s, dist| dist.snap(s));
        }
        s.map(&mut self.drops, Snap::u64);
    }

    fn on_processed(&mut self, event: &ProcessedEvent) {
        if event.published.is_empty() {
            // Auxiliary callbacks (pose caches, IMU intake) publish
            // nothing; they are not the node's "input arrives → output is
            // ready" work the paper's Fig 5 measures, and they end no
            // path.
            return;
        }
        // Fig 5's single-node latency: from callback start to output
        // ready. This includes the platform-level queueing/dilation the
        // node experiences (GPU waits, bandwidth contention) but not the
        // time a frame sat in the subscription queue — the ROS-level
        // instrumentation point the paper's numbers correspond to. The
        // subscription wait is captured separately (`node_queue_wait`)
        // and, of course, inside the end-to-end path latencies.
        self.node_latency
            .entry(event.node.clone())
            .or_default()
            .record(event.processing().as_millis_f64());
        self.node_queue_wait
            .entry(event.node.clone())
            .or_default()
            .record(event.started.saturating_since(event.arrival).as_millis_f64());
        for spec in &self.specs {
            if spec.sink_node != event.node {
                continue;
            }
            if let Some(origin) = event.lineage.stamp_of(spec.source) {
                let latency = event.completed.saturating_since(origin);
                self.path_latency
                    .entry(spec.name.clone())
                    .or_default()
                    .record(latency.as_millis_f64());
            }
        }
    }
}

/// Shared handle installing a [`LatencyRecorder`] as a bus observer while
/// keeping it readable by the experiment driver.
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder {
    inner: Rc<RefCell<LatencyRecorder>>,
}

impl SharedRecorder {
    /// Wraps a recorder.
    pub fn new(recorder: LatencyRecorder) -> SharedRecorder {
        SharedRecorder { inner: Rc::new(RefCell::new(recorder)) }
    }

    /// Borrows the recorder immutably.
    ///
    /// # Panics
    ///
    /// Panics if the recorder is currently mutably borrowed (only possible
    /// during observer callbacks).
    pub fn borrow(&self) -> std::cell::Ref<'_, LatencyRecorder> {
        self.inner.borrow()
    }

    /// The observer handle to install with
    /// [`Bus::set_shared_observer`](av_ros::Bus::set_shared_observer).
    pub fn observer(&self) -> Rc<RefCell<dyn BusObserver>> {
        Rc::clone(&self.inner) as Rc<RefCell<dyn BusObserver>>
    }

    /// Clones the recorded state out of the shared handle, detaching it
    /// from the (thread-local) bus so results can cross threads.
    ///
    /// # Panics
    ///
    /// Panics if the recorder is currently mutably borrowed (only possible
    /// during observer callbacks).
    pub fn snapshot(&self) -> LatencyRecorder {
        self.inner.borrow().clone()
    }

    /// Saves or restores the wrapped recorder (see
    /// [`LatencyRecorder::snap`]).
    pub fn snap(&self, s: &mut Snap<'_>) {
        self.inner.borrow_mut().snap(s);
    }
}

impl BusObserver for LatencyRecorder {
    fn node_processed(&mut self, event: &ProcessedEvent) {
        self.on_processed(event);
    }

    fn message_dropped(&mut self, topic: &str, node: &str, _depth: usize, _time: SimTime) {
        *self.drops.entry((topic.to_string(), node.to_string())).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_des::SimTime;
    use av_ros::Lineage;

    fn event(
        node: &str,
        arrival_ms: u64,
        completed_ms: u64,
        lineage: Lineage,
        published: bool,
    ) -> ProcessedEvent {
        ProcessedEvent {
            node: node.to_string(),
            topic: "in".to_string(),
            arrival: SimTime::from_millis(arrival_ms),
            started: SimTime::from_millis(arrival_ms),
            completed: SimTime::from_millis(completed_ms),
            lineage,
            published: if published { vec!["out".to_string()] } else { vec![] },
        }
    }

    fn recorder() -> LatencyRecorder {
        LatencyRecorder::new(vec![
            PathSpec::new("localization", "ndt_matching", Source::Lidar),
            PathSpec::new("costmap_vision_obj", "costmap_generator_obj", Source::Camera),
        ])
    }

    #[test]
    fn node_latency_recorded() {
        let mut r = recorder();
        r.node_processed(&event("ndt_matching", 100, 125, Lineage::empty(), true));
        r.node_processed(&event("ndt_matching", 200, 230, Lineage::empty(), true));
        let s = r.node_summary("ndt_matching");
        assert_eq!(s.count, 2);
        assert!((s.mean - 27.5).abs() < 1e-9);
        assert_eq!(r.nodes(), vec!["ndt_matching".to_string()]);
    }

    #[test]
    fn path_latency_uses_lineage_origin() {
        let mut r = recorder();
        let lineage = Lineage::origin(Source::Lidar, SimTime::from_millis(80));
        r.node_processed(&event("ndt_matching", 100, 130, lineage, true));
        let s = r.path_summary("localization");
        assert_eq!(s.count, 1);
        assert!((s.mean - 50.0).abs() < 1e-9, "130 − 80 = 50 ms");
    }

    #[test]
    fn wrong_sink_or_source_not_recorded() {
        let mut r = recorder();
        // Camera lineage arriving at ndt (lidar path): not recorded.
        let lineage = Lineage::origin(Source::Camera, SimTime::from_millis(80));
        r.node_processed(&event("ndt_matching", 100, 130, lineage, true));
        assert_eq!(r.path_summary("localization").count, 0);
        // Lidar lineage at an unrelated node: not recorded either.
        let lineage = Lineage::origin(Source::Lidar, SimTime::from_millis(80));
        r.node_processed(&event("voxel_grid_filter", 100, 130, lineage, true));
        assert_eq!(r.path_summary("localization").count, 0);
    }

    #[test]
    fn non_publishing_callbacks_end_no_path() {
        let mut r = recorder();
        let lineage = Lineage::origin(Source::Lidar, SimTime::from_millis(80));
        r.node_processed(&event("ndt_matching", 100, 130, lineage, false));
        assert_eq!(r.path_summary("localization").count, 0);
        // Auxiliary (non-publishing) callbacks do not pollute Fig 5's
        // node statistics either.
        assert_eq!(r.node_summary("ndt_matching").count, 0);
    }

    #[test]
    fn worst_path_by_mean() {
        let mut r = recorder();
        r.node_processed(&event(
            "ndt_matching",
            100,
            150,
            Lineage::origin(Source::Lidar, SimTime::from_millis(100)),
            true,
        ));
        r.node_processed(&event(
            "costmap_generator_obj",
            100,
            140,
            Lineage::origin(Source::Camera, SimTime::from_millis(0)),
            true,
        ));
        let (name, summary) = r.worst_path_by_mean().unwrap();
        assert_eq!(name, "costmap_vision_obj");
        assert!((summary.mean - 140.0).abs() < 1e-9);
    }

    #[test]
    fn drops_accumulate() {
        let mut r = recorder();
        r.message_dropped("/image_raw", "vision_detection", 0, SimTime::ZERO);
        r.message_dropped("/image_raw", "vision_detection", 0, SimTime::ZERO);
        assert_eq!(
            r.observed_drops()[&("/image_raw".to_string(), "vision_detection".to_string())],
            2
        );
    }

    #[test]
    fn recorder_state_round_trips() {
        let mut r = recorder();
        let lineage = Lineage::origin(Source::Lidar, SimTime::from_millis(80));
        r.node_processed(&event("ndt_matching", 100, 130, lineage, true));
        r.node_processed(&event("voxel_grid_filter", 10, 14, Lineage::empty(), true));
        r.message_dropped("/image_raw", "vision_detection", 0, SimTime::ZERO);

        let mut s = Snap::save();
        r.snap(&mut s);
        let bytes = s.into_bytes();

        let mut restored = recorder();
        restored.snap(&mut Snap::load(&bytes));
        assert_eq!(restored.node_summary("ndt_matching"), r.node_summary("ndt_matching"));
        assert_eq!(restored.path_summary("localization"), r.path_summary("localization"));
        assert_eq!(restored.observed_drops(), r.observed_drops());
        assert_eq!(restored.nodes(), r.nodes());

        // Re-serializing the restored state is byte-identical.
        let mut s2 = Snap::save();
        restored.snap(&mut s2);
        assert_eq!(s2.into_bytes(), bytes);
    }

    #[test]
    fn shared_recorder_is_observer() {
        let shared = SharedRecorder::new(recorder());
        let obs = shared.observer();
        obs.borrow_mut().node_processed(&event("ndt_matching", 0, 10, Lineage::empty(), true));
        assert_eq!(shared.borrow().node_summary("ndt_matching").count, 1);
    }
}
