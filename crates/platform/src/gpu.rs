//! Discrete-GPU model: in-order kernel queue plus DMA copy engine.

use av_des::{Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Configuration of the GPU model.
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// Host↔device copy bandwidth in bytes per second (PCIe-class).
    pub copy_bandwidth: f64,
    /// Fixed launch latency added per job (driver + kernel launch).
    pub launch_overhead: SimDuration,
}

impl Default for GpuConfig {
    /// PCIe 3.0 x16-class copies and a ~20 µs launch path.
    fn default() -> GpuConfig {
        GpuConfig { copy_bandwidth: 12.0e9, launch_overhead: SimDuration::from_micros(20) }
    }
}

/// One unit of GPU work: a batch of kernels plus its input/output copies.
///
/// Jobs execute *in order* on a single queue — the mechanism by which a
/// long-running vision network delays `euclidean_cluster`'s GPU phase.
#[derive(Debug, Clone)]
pub struct GpuJob {
    /// Client (node) name, for per-node accounting.
    pub client: String,
    /// Total kernel execution time on an idle device.
    pub kernel_time: SimDuration,
    /// Bytes copied host→device and device→host, serialized with kernels.
    pub copy_bytes: u64,
    /// Energy the job dissipates, in joules (kernels' dynamic energy).
    pub energy_j: f64,
}

impl GpuJob {
    /// Creates a job.
    pub fn new(
        client: impl Into<String>,
        kernel_time: SimDuration,
        copy_bytes: u64,
        energy_j: f64,
    ) -> GpuJob {
        GpuJob { client: client.into(), kernel_time, copy_bytes, energy_j }
    }
}

/// Aggregate statistics of the GPU model.
#[derive(Debug, Clone, Default)]
pub struct GpuStats {
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Total device-busy time (kernels + copies + launch overhead).
    pub total_busy: SimDuration,
    /// Busy time per client.
    pub busy_by_client: HashMap<String, SimDuration>,
    /// Total dynamic energy dissipated by kernels, joules.
    pub total_energy_j: f64,
    /// Total time jobs waited behind other clients' work.
    pub total_wait: SimDuration,
    /// Maximum single queueing wait observed.
    pub max_wait: SimDuration,
}

impl GpuStats {
    /// Device utilization over an elapsed window.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.total_busy.as_secs_f64() / elapsed.as_secs_f64()
    }

    /// Per-client share of device time, Table V's "GPU usage %".
    pub fn client_share(&self, client: &str, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.busy_by_client
            .get(client)
            .map(|b| b.as_secs_f64() / elapsed.as_secs_f64())
            .unwrap_or(0.0)
    }
}

struct GpuInner {
    sim: Sim,
    config: GpuConfig,
    busy_until: SimTime,
    stats: GpuStats,
}

/// The GPU model. Clonable handle; all clones share state.
#[derive(Clone)]
pub struct Gpu {
    inner: Rc<RefCell<GpuInner>>,
}

impl Gpu {
    /// Creates a GPU on the given simulator.
    ///
    /// # Panics
    ///
    /// Panics if `config.copy_bandwidth <= 0`.
    pub fn new(sim: &Sim, config: GpuConfig) -> Gpu {
        assert!(config.copy_bandwidth > 0.0, "copy bandwidth must be positive");
        Gpu {
            inner: Rc::new(RefCell::new(GpuInner {
                sim: sim.clone(),
                config,
                busy_until: SimTime::ZERO,
                stats: GpuStats::default(),
            })),
        }
    }

    /// Submits a job; `on_complete` fires when it finishes. Returns the
    /// modeled completion time.
    pub fn submit(&self, job: GpuJob, on_complete: impl FnOnce() + 'static) -> SimTime {
        let (sim, end) = {
            let mut inner = self.inner.borrow_mut();
            let now = inner.sim.now();
            let start = inner.busy_until.max(now);
            let wait = start.saturating_since(now);
            let copy_time =
                SimDuration::from_secs_f64(job.copy_bytes as f64 / inner.config.copy_bandwidth);
            let service = inner.config.launch_overhead + copy_time + job.kernel_time;
            let end = start + service;
            inner.busy_until = end;

            inner.stats.jobs_completed += 1;
            inner.stats.total_busy += service;
            inner.stats.total_energy_j += job.energy_j;
            inner.stats.total_wait += wait;
            inner.stats.max_wait = inner.stats.max_wait.max(wait);
            *inner.stats.busy_by_client.entry(job.client).or_insert(SimDuration::ZERO) += service;

            (inner.sim.clone(), end)
        };
        sim.schedule_at(end, on_complete);
        end
    }

    /// Snapshot of accumulated statistics.
    pub fn stats(&self) -> GpuStats {
        self.inner.borrow().stats.clone()
    }

    /// Resets accumulated statistics.
    pub fn reset_stats(&self) {
        self.inner.borrow_mut().stats = GpuStats::default();
    }

    /// Device-busy time accrued up to the current simulated instant.
    ///
    /// Mirrors [`Cpu::busy_time_by_now`](crate::Cpu::busy_time_by_now): the
    /// in-order queue's future work is one contiguous block ending at
    /// `busy_until`, so subtracting `max(0, busy_until − now)` from the
    /// submit-time-charged total gives the exact by-now integral.
    pub fn busy_time_by_now(&self) -> SimDuration {
        let inner = self.inner.borrow();
        let now = inner.sim.now();
        let future = inner.busy_until.saturating_since(now).as_nanos();
        SimDuration::from_nanos(inner.stats.total_busy.as_nanos().saturating_sub(future))
    }

    /// Saves or restores the model's dynamic state (queue head,
    /// accumulated statistics) for a checkpoint.
    pub fn snap(&self, s: &mut av_des::Snap<'_>) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        s.tag("gpu");
        s.time(&mut inner.busy_until);
        let stats = &mut inner.stats;
        s.u64(&mut stats.jobs_completed);
        s.dur(&mut stats.total_busy);
        s.f64(&mut stats.total_energy_j);
        s.dur(&mut stats.total_wait);
        s.dur(&mut stats.max_wait);
        s.map(&mut stats.busy_by_client, av_des::Snap::dur);
    }
}

impl fmt::Debug for Gpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Gpu")
            .field("busy_until", &inner.busy_until)
            .field("jobs_completed", &inner.stats.jobs_completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn quiet_config() -> GpuConfig {
        GpuConfig { copy_bandwidth: 1e9, launch_overhead: SimDuration::ZERO }
    }

    #[test]
    fn job_completes_after_kernel_time() {
        let sim = Sim::new();
        let gpu = Gpu::new(&sim, quiet_config());
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let d = Rc::clone(&done);
        let s = sim.clone();
        gpu.submit(GpuJob::new("yolo", SimDuration::from_millis(30), 0, 1.0), move || {
            d.set(s.now())
        });
        sim.run();
        assert_eq!(done.get(), SimTime::from_millis(30));
    }

    #[test]
    fn jobs_serialize_in_order() {
        let sim = Sim::new();
        let gpu = Gpu::new(&sim, quiet_config());
        let e1 = gpu.submit(GpuJob::new("ssd", SimDuration::from_millis(40), 0, 0.0), || {});
        let e2 = gpu.submit(GpuJob::new("cluster", SimDuration::from_millis(5), 0, 0.0), || {});
        assert_eq!(e1, SimTime::from_millis(40));
        assert_eq!(e2, SimTime::from_millis(45));
        sim.run();
        let stats = gpu.stats();
        assert_eq!(stats.total_wait, SimDuration::from_millis(40));
    }

    #[test]
    fn copies_consume_bandwidth_time() {
        let sim = Sim::new();
        let gpu = Gpu::new(&sim, quiet_config());
        // 1e9 B/s → 100 MB takes 100 ms.
        let end = gpu.submit(GpuJob::new("a", SimDuration::ZERO, 100_000_000, 0.0), || {});
        assert_eq!(end, SimTime::from_millis(100));
    }

    #[test]
    fn launch_overhead_added() {
        let sim = Sim::new();
        let mut config = quiet_config();
        config.launch_overhead = SimDuration::from_micros(50);
        let gpu = Gpu::new(&sim, config);
        let end = gpu.submit(GpuJob::new("a", SimDuration::from_micros(100), 0, 0.0), || {});
        assert_eq!(end, SimTime::from_micros(150));
    }

    #[test]
    fn energy_and_busy_accounting() {
        let sim = Sim::new();
        let gpu = Gpu::new(&sim, quiet_config());
        gpu.submit(GpuJob::new("ssd", SimDuration::from_millis(20), 0, 2.5), || {});
        gpu.submit(GpuJob::new("ssd", SimDuration::from_millis(20), 0, 2.5), || {});
        gpu.submit(GpuJob::new("cluster", SimDuration::from_millis(10), 0, 0.5), || {});
        sim.run();
        let stats = gpu.stats();
        assert_eq!(stats.jobs_completed, 3);
        assert!((stats.total_energy_j - 5.5).abs() < 1e-12);
        assert_eq!(stats.busy_by_client["ssd"], SimDuration::from_millis(40));
        let w = SimDuration::from_millis(100);
        assert!((stats.utilization(w) - 0.5).abs() < 1e-9);
        assert!((stats.client_share("cluster", w) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn idle_gap_not_counted_busy() {
        let sim = Sim::new();
        let gpu = Gpu::new(&sim, quiet_config());
        gpu.submit(GpuJob::new("a", SimDuration::from_millis(10), 0, 0.0), || {});
        sim.run();
        // Device idle from 10..50.
        sim.schedule_at(SimTime::from_millis(50), || {});
        sim.run();
        let g2 = gpu.clone();
        sim.schedule_at(SimTime::from_millis(50), move || {
            g2.submit(GpuJob::new("a", SimDuration::from_millis(10), 0, 0.0), || {});
        });
        sim.run();
        assert_eq!(gpu.stats().total_busy, SimDuration::from_millis(20));
    }

    #[test]
    fn busy_time_by_now_tracks_elapsed_work() {
        let sim = Sim::new();
        let gpu = Gpu::new(&sim, quiet_config());
        gpu.submit(GpuJob::new("a", SimDuration::from_millis(10), 0, 0.0), || {});
        gpu.submit(GpuJob::new("b", SimDuration::from_millis(10), 0, 0.0), || {});
        assert_eq!(gpu.busy_time_by_now(), SimDuration::ZERO);
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(gpu.busy_time_by_now(), SimDuration::from_millis(5));
        sim.run();
        assert_eq!(gpu.busy_time_by_now(), gpu.stats().total_busy);
    }

    #[test]
    fn reset_stats_clears() {
        let sim = Sim::new();
        let gpu = Gpu::new(&sim, quiet_config());
        gpu.submit(GpuJob::new("a", SimDuration::from_millis(1), 0, 1.0), || {});
        sim.run();
        gpu.reset_stats();
        let stats = gpu.stats();
        assert_eq!(stats.jobs_completed, 0);
        assert_eq!(stats.total_energy_j, 0.0);
    }
}
