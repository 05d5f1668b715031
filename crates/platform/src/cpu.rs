//! Multicore CPU model with memory-bandwidth contention.

use av_des::{Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Configuration of the CPU model.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    /// Number of hardware cores.
    pub cores: usize,
    /// Fixed dispatch overhead added to every task (context switch, wakeup).
    pub dispatch_overhead: SimDuration,
    /// Aggregate memory-bandwidth capacity, in the same (abstract) units as
    /// [`CpuTask::mem_intensity`]. When the summed intensity of co-running
    /// tasks exceeds this, all of the excess dilates the newly started
    /// task's service time.
    pub mem_bandwidth: f64,
    /// Exponent applied to the oversubscription ratio; > 1 makes contention
    /// hit the tail harder than the mean.
    pub contention_exponent: f64,
}

impl Default for CpuConfig {
    /// An 8-core workstation-class part, roughly the machine in the paper's
    /// Table II.
    fn default() -> CpuConfig {
        CpuConfig {
            cores: 8,
            dispatch_overhead: SimDuration::from_micros(30),
            mem_bandwidth: 1.0,
            contention_exponent: 1.0,
        }
    }
}

/// One unit of CPU work: a node callback's compute demand.
#[derive(Debug, Clone)]
pub struct CpuTask {
    /// Client (node) name, for per-node accounting.
    pub client: String,
    /// Pure service demand on an unloaded core.
    pub demand: SimDuration,
    /// Memory-bandwidth intensity in `[0, 1]`-ish units; the fraction of
    /// the machine's bandwidth this task consumes while running.
    pub mem_intensity: f64,
}

impl CpuTask {
    /// Creates a task.
    pub fn new(client: impl Into<String>, demand: SimDuration, mem_intensity: f64) -> CpuTask {
        CpuTask { client: client.into(), demand, mem_intensity }
    }
}

/// Aggregate statistics of the CPU model.
#[derive(Debug, Clone, Default)]
pub struct CpuStats {
    /// Tasks completed (scheduled to completion).
    pub tasks_completed: u64,
    /// Sum of busy core-time across all tasks.
    pub total_busy: SimDuration,
    /// Busy core-time per client.
    pub busy_by_client: HashMap<String, SimDuration>,
    /// Total time tasks spent queued waiting for a core.
    pub total_wait: SimDuration,
    /// Maximum single queueing wait observed.
    pub max_wait: SimDuration,
}

impl CpuStats {
    /// Utilization of the whole CPU (busy core-time over `cores × elapsed`).
    pub fn utilization(&self, cores: usize, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() || cores == 0 {
            return 0.0;
        }
        self.total_busy.as_secs_f64() / (cores as f64 * elapsed.as_secs_f64())
    }

    /// Per-client share of total machine time (`busy / (cores × elapsed)`),
    /// the quantity Table V reports as "CPU usage %".
    pub fn client_share(&self, client: &str, cores: usize, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() || cores == 0 {
            return 0.0;
        }
        self.busy_by_client
            .get(client)
            .map(|b| b.as_secs_f64() / (cores as f64 * elapsed.as_secs_f64()))
            .unwrap_or(0.0)
    }
}

#[derive(Default)]
struct Running {
    end: SimTime,
    mem_intensity: f64,
}

struct CpuInner {
    sim: Sim,
    config: CpuConfig,
    /// Per-core time at which the core becomes free.
    core_free_at: Vec<SimTime>,
    /// Tasks currently (or in the future) occupying a core.
    running: Vec<Running>,
    stats: CpuStats,
}

/// The multicore CPU model. Clonable handle; all clones share state.
#[derive(Clone)]
pub struct Cpu {
    inner: Rc<RefCell<CpuInner>>,
}

impl Cpu {
    /// Creates a CPU on the given simulator.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores == 0` or `config.mem_bandwidth <= 0`.
    pub fn new(sim: &Sim, config: CpuConfig) -> Cpu {
        assert!(config.cores > 0, "CPU must have at least one core");
        assert!(config.mem_bandwidth > 0.0, "memory bandwidth must be positive");
        Cpu {
            inner: Rc::new(RefCell::new(CpuInner {
                sim: sim.clone(),
                core_free_at: vec![SimTime::ZERO; config.cores],
                config,
                running: Vec::new(),
                stats: CpuStats::default(),
            })),
        }
    }

    /// Submits a task; `on_complete` fires (in virtual time) when it
    /// finishes. Returns the modeled completion time.
    ///
    /// Dispatch picks the earliest-free core (FIFO, work-conserving). The
    /// service time is the task's demand dilated by memory-bandwidth
    /// oversubscription at start, plus the dispatch overhead.
    pub fn submit(&self, task: CpuTask, on_complete: impl FnOnce() + 'static) -> SimTime {
        let (sim, end) = {
            let mut inner = self.inner.borrow_mut();
            let now = inner.sim.now();

            // Earliest-free core.
            let core = (0..inner.core_free_at.len())
                .min_by_key(|&i| inner.core_free_at[i])
                .expect("at least one core");
            let start = inner.core_free_at[core].max(now);
            let wait = start.saturating_since(now);

            // Bandwidth pressure from tasks that will still be running at
            // `start`.
            inner.running.retain(|r| r.end > start);
            let pressure: f64 =
                inner.running.iter().map(|r| r.mem_intensity).sum::<f64>() + task.mem_intensity;
            let over = (pressure / inner.config.mem_bandwidth).max(1.0);
            let dilation = over.powf(inner.config.contention_exponent);

            let service = task.demand.mul_f64(dilation) + inner.config.dispatch_overhead;
            let end = start + service;
            inner.core_free_at[core] = end;
            inner.running.push(Running { end, mem_intensity: task.mem_intensity });

            inner.stats.tasks_completed += 1;
            inner.stats.total_busy += service;
            inner.stats.total_wait += wait;
            inner.stats.max_wait = inner.stats.max_wait.max(wait);
            *inner.stats.busy_by_client.entry(task.client).or_insert(SimDuration::ZERO) += service;

            (inner.sim.clone(), end)
        };
        sim.schedule_at(end, on_complete);
        end
    }

    /// Number of configured cores.
    pub fn cores(&self) -> usize {
        self.inner.borrow().config.cores
    }

    /// Snapshot of accumulated statistics.
    pub fn stats(&self) -> CpuStats {
        self.inner.borrow().stats.clone()
    }

    /// Resets accumulated statistics (e.g. after a warm-up phase).
    pub fn reset_stats(&self) {
        self.inner.borrow_mut().stats = CpuStats::default();
    }

    /// Core-busy time accrued up to the current simulated instant.
    ///
    /// Statistics charge a task's full service at submit; the portion
    /// scheduled beyond `now` is, per core, a contiguous block ending at
    /// `core_free_at` (any idle gap on a core lies strictly in the past),
    /// so subtracting `max(0, core_free_at − now)` per core yields the
    /// exact busy-time integral over `[0, now]` — the quantity the trace
    /// sampler differentiates into a utilization series.
    pub fn busy_time_by_now(&self) -> SimDuration {
        let inner = self.inner.borrow();
        let now = inner.sim.now();
        let future: u64 =
            inner.core_free_at.iter().map(|&free| free.saturating_since(now).as_nanos()).sum();
        SimDuration::from_nanos(inner.stats.total_busy.as_nanos().saturating_sub(future))
    }

    /// Saves or restores the model's dynamic state (core occupancy,
    /// in-flight contention set, accumulated statistics) for a
    /// checkpoint. The configuration is not saved — resume rebuilds it
    /// from the same calibration.
    ///
    /// # Panics
    ///
    /// Loading panics if the checkpoint's core count differs from this
    /// model's.
    pub fn snap(&self, s: &mut av_des::Snap<'_>) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        s.tag("cpu");
        s.check_len(inner.core_free_at.len(), "checkpoint core count mismatch");
        for slot in &mut inner.core_free_at {
            s.time(slot);
        }
        s.vec(&mut inner.running, |s, r| {
            s.time(&mut r.end);
            s.f64(&mut r.mem_intensity);
        });
        let stats = &mut inner.stats;
        s.u64(&mut stats.tasks_completed);
        s.dur(&mut stats.total_busy);
        s.dur(&mut stats.total_wait);
        s.dur(&mut stats.max_wait);
        s.map(&mut stats.busy_by_client, av_des::Snap::dur);
    }
}

impl fmt::Debug for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Cpu")
            .field("cores", &inner.config.cores)
            .field("tasks_completed", &inner.stats.tasks_completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn quiet_config(cores: usize) -> CpuConfig {
        CpuConfig {
            cores,
            dispatch_overhead: SimDuration::ZERO,
            mem_bandwidth: 1.0,
            contention_exponent: 1.0,
        }
    }

    #[test]
    fn single_task_completes_after_demand() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, quiet_config(1));
        let done_at = Rc::new(Cell::new(SimTime::ZERO));
        let d = Rc::clone(&done_at);
        let s = sim.clone();
        cpu.submit(CpuTask::new("a", SimDuration::from_millis(10), 0.0), move || d.set(s.now()));
        sim.run();
        assert_eq!(done_at.get(), SimTime::from_millis(10));
    }

    #[test]
    fn tasks_queue_on_single_core() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, quiet_config(1));
        let end1 = cpu.submit(CpuTask::new("a", SimDuration::from_millis(10), 0.0), || {});
        let end2 = cpu.submit(CpuTask::new("b", SimDuration::from_millis(10), 0.0), || {});
        assert_eq!(end1, SimTime::from_millis(10));
        assert_eq!(end2, SimTime::from_millis(20));
        sim.run();
        let stats = cpu.stats();
        assert_eq!(stats.total_wait, SimDuration::from_millis(10));
        assert_eq!(stats.max_wait, SimDuration::from_millis(10));
    }

    #[test]
    fn tasks_parallel_on_two_cores() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, quiet_config(2));
        let end1 = cpu.submit(CpuTask::new("a", SimDuration::from_millis(10), 0.0), || {});
        let end2 = cpu.submit(CpuTask::new("b", SimDuration::from_millis(10), 0.0), || {});
        assert_eq!(end1, SimTime::from_millis(10));
        assert_eq!(end2, SimTime::from_millis(10));
    }

    #[test]
    fn bandwidth_oversubscription_dilates() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, quiet_config(2));
        // First task consumes 0.8 of bandwidth; second adds another 0.8 →
        // pressure 1.6 → dilation 1.6×.
        let _ = cpu.submit(CpuTask::new("a", SimDuration::from_millis(10), 0.8), || {});
        let end2 = cpu.submit(CpuTask::new("b", SimDuration::from_millis(10), 0.8), || {});
        assert_eq!(end2, SimTime::from_millis(16));
    }

    #[test]
    fn no_dilation_under_capacity() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, quiet_config(2));
        let _ = cpu.submit(CpuTask::new("a", SimDuration::from_millis(10), 0.3), || {});
        let end2 = cpu.submit(CpuTask::new("b", SimDuration::from_millis(10), 0.3), || {});
        assert_eq!(end2, SimTime::from_millis(10));
    }

    #[test]
    fn contention_exponent_amplifies() {
        let sim = Sim::new();
        let mut config = quiet_config(2);
        config.contention_exponent = 2.0;
        let cpu = Cpu::new(&sim, config);
        let _ = cpu.submit(CpuTask::new("a", SimDuration::from_millis(10), 1.0), || {});
        let end2 = cpu.submit(CpuTask::new("b", SimDuration::from_millis(10), 1.0), || {});
        // Pressure 2.0 → dilation 4× with exponent 2.
        assert_eq!(end2, SimTime::from_millis(40));
    }

    #[test]
    fn finished_tasks_stop_contending() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, quiet_config(2));
        let _ = cpu.submit(CpuTask::new("a", SimDuration::from_millis(5), 1.0), || {});
        sim.run();
        // First finished at t=5; submit another: no overlap, no dilation.
        let end = cpu.submit(CpuTask::new("b", SimDuration::from_millis(10), 1.0), || {});
        assert_eq!(end, SimTime::from_millis(15));
    }

    #[test]
    fn dispatch_overhead_added() {
        let sim = Sim::new();
        let mut config = quiet_config(1);
        config.dispatch_overhead = SimDuration::from_micros(100);
        let cpu = Cpu::new(&sim, config);
        let end = cpu.submit(CpuTask::new("a", SimDuration::from_millis(1), 0.0), || {});
        assert_eq!(end, SimTime::from_micros(1100));
    }

    #[test]
    fn per_client_accounting() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, quiet_config(4));
        for _ in 0..3 {
            cpu.submit(CpuTask::new("ndt", SimDuration::from_millis(10), 0.0), || {});
        }
        cpu.submit(CpuTask::new("cluster", SimDuration::from_millis(5), 0.0), || {});
        sim.run();
        let stats = cpu.stats();
        assert_eq!(stats.busy_by_client["ndt"], SimDuration::from_millis(30));
        assert_eq!(stats.busy_by_client["cluster"], SimDuration::from_millis(5));
        assert_eq!(stats.tasks_completed, 4);
        // Shares over a 100ms window on 4 cores.
        let w = SimDuration::from_millis(100);
        assert!((stats.client_share("ndt", 4, w) - 0.075).abs() < 1e-9);
        assert!((stats.utilization(4, w) - 0.0875).abs() < 1e-9);
    }

    #[test]
    fn busy_time_by_now_tracks_elapsed_work() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, quiet_config(1));
        cpu.submit(CpuTask::new("a", SimDuration::from_millis(10), 0.0), || {});
        cpu.submit(CpuTask::new("b", SimDuration::from_millis(10), 0.0), || {});
        // Both charged at submit, but none has executed yet.
        assert_eq!(cpu.stats().total_busy, SimDuration::from_millis(20));
        assert_eq!(cpu.busy_time_by_now(), SimDuration::ZERO);
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(cpu.busy_time_by_now(), SimDuration::from_millis(5));
        sim.run_until(SimTime::from_millis(15));
        assert_eq!(cpu.busy_time_by_now(), SimDuration::from_millis(15));
        sim.run();
        assert_eq!(cpu.busy_time_by_now(), cpu.stats().total_busy);
    }

    #[test]
    fn reset_stats_clears() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, quiet_config(1));
        cpu.submit(CpuTask::new("a", SimDuration::from_millis(1), 0.0), || {});
        sim.run();
        cpu.reset_stats();
        assert_eq!(cpu.stats().tasks_completed, 0);
        assert!(cpu.stats().busy_by_client.is_empty());
    }
}
