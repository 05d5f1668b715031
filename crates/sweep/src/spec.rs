//! The declarative sweep specification.
//!
//! A sweep is a grid over stack and scenario knobs — detector, traffic
//! density, sensor rates, queue capacity, seed, blackout schedule —
//! optionally extended with explicit extra points. The spec expands into
//! an ordered list of [`SweepPoint`]s (cartesian product in a fixed axis
//! order, explicit points appended), each of which knows how to override
//! a base [`StackConfig`]. Specs are written as JSON and loaded through
//! the same hermetic reader ([`av_trace::json`]) that backs the trace
//! tools, so a sweep file, like everything else in the build, needs no
//! external dependency.

use av_core::fault::FaultPlan;
use av_core::stack::{Blackout, SchedPolicyKind, StackConfig};
use av_ros::Source;
use av_vision::DetectorKind;
use std::fmt::Write as _;

/// Which base world the sweep runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldKind {
    /// The paper's 8-minute urban drive ([`StackConfig::paper_default`]).
    Paper,
    /// The tiny CI world ([`StackConfig::smoke_test`]).
    Smoke,
}

impl WorldKind {
    /// Parses a world name (`"paper"` or `"smoke"`), as it appears in
    /// sweep specs and scenario-service requests.
    pub fn parse(s: &str) -> Result<WorldKind, String> {
        match s {
            "paper" => Ok(WorldKind::Paper),
            "smoke" => Ok(WorldKind::Smoke),
            other => Err(format!("unknown world {other:?} (expected \"paper\" or \"smoke\")")),
        }
    }

    /// The world's name as written in specs.
    pub fn name(self) -> &'static str {
        match self {
            WorldKind::Paper => "paper",
            WorldKind::Smoke => "smoke",
        }
    }

    /// The base configuration this world starts every point from.
    /// SSD512 is the paper's headline detector; point overrides replace
    /// it as needed.
    pub fn base_config(self) -> StackConfig {
        match self {
            WorldKind::Paper => StackConfig::paper_default(DetectorKind::Ssd512),
            WorldKind::Smoke => StackConfig::smoke_test(DetectorKind::Ssd512),
        }
    }
}

/// A named blackout schedule: zero or more sensor outage windows.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackoutSpec {
    /// The schedule as written in the spec (e.g. `lidar:4-7+camera:4-7`,
    /// or `none`). Used in labels and artifact names.
    pub label: String,
    /// The outage windows.
    pub windows: Vec<Blackout>,
}

impl BlackoutSpec {
    /// Parses a schedule string: `none`, or `+`-separated
    /// `source:from-to` windows with times in seconds, e.g.
    /// `lidar:4-7+camera:4-7`.
    pub fn parse(s: &str) -> Result<BlackoutSpec, String> {
        let label = s.to_string();
        if s == "none" {
            return Ok(BlackoutSpec { label, windows: Vec::new() });
        }
        let mut windows = Vec::new();
        for part in s.split('+') {
            let (source, window) = part
                .split_once(':')
                .ok_or_else(|| format!("blackout {part:?}: expected source:from-to"))?;
            let source =
                Source::parse(source).ok_or_else(|| format!("unknown sensor source {source:?}"))?;
            let (from, to) = window
                .split_once('-')
                .ok_or_else(|| format!("blackout {part:?}: expected from-to window"))?;
            let from_s: f64 =
                from.parse().map_err(|_| format!("blackout {part:?}: bad start {from:?}"))?;
            let to_s: f64 = to.parse().map_err(|_| format!("blackout {part:?}: bad end {to:?}"))?;
            let blackout = Blackout { source, from_s, to_s };
            blackout.validate().map_err(|e| format!("blackout {part:?}: {e}"))?;
            windows.push(blackout);
        }
        Ok(BlackoutSpec { label, windows })
    }
}

/// A named fault plan: the fault DSL string plus its parsed form.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanSpec {
    /// The plan as written in the spec (e.g. `crash:ndt_matching@4`, or
    /// `none`). Used in labels and artifact names.
    pub label: String,
    /// The parsed plan.
    pub plan: FaultPlan,
}

impl FaultPlanSpec {
    /// Parses a fault plan string (see [`FaultPlan::parse`] for the
    /// DSL): `none`, or `+`-separated faults like
    /// `crash:ndt_matching@4+drop:/image_raw>vision_detection:0.3:2-6`.
    pub fn parse(s: &str) -> Result<FaultPlanSpec, String> {
        Ok(FaultPlanSpec { label: s.to_string(), plan: FaultPlan::parse(s)? })
    }
}

/// One point of the expanded sweep: the base config plus the axis
/// overrides that are in effect there. `None` means "leave the base
/// value alone".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepPoint {
    /// Position in expansion order; stable across `--jobs` levels.
    pub ordinal: usize,
    /// Detector override.
    pub detector: Option<DetectorKind>,
    /// Scenario traffic-density override (1.0 = the paper's street).
    pub traffic_density: Option<f64>,
    /// Camera frame-rate override, Hz.
    pub camera_rate_hz: Option<f64>,
    /// LiDAR sweep-rate override, Hz.
    pub lidar_rate_hz: Option<f64>,
    /// Subscription queue-capacity override.
    pub queue_capacity: Option<usize>,
    /// Master seed override.
    pub seed: Option<u64>,
    /// Blackout schedule override.
    pub blackouts: Option<BlackoutSpec>,
    /// Fault plan override.
    pub faults: Option<FaultPlanSpec>,
    /// Supervision restart initial-backoff override, seconds.
    pub restart_backoff_s: Option<f64>,
    /// Callback scheduling-policy override.
    pub sched_policy: Option<SchedPolicyKind>,
}

impl SweepPoint {
    /// Stable short identifier used in artifact file names: `p00`,
    /// `p01`, …
    pub fn id(&self) -> String {
        format!("p{:02}", self.ordinal)
    }

    /// Human-readable list of the overrides in effect, or `base` when
    /// there are none.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if let Some(d) = self.detector {
            parts.push(format!("detector={}", d.name()));
        }
        if let Some(v) = self.traffic_density {
            parts.push(format!("density={v}"));
        }
        if let Some(v) = self.camera_rate_hz {
            parts.push(format!("camera_hz={v}"));
        }
        if let Some(v) = self.lidar_rate_hz {
            parts.push(format!("lidar_hz={v}"));
        }
        if let Some(v) = self.queue_capacity {
            parts.push(format!("qcap={v}"));
        }
        if let Some(v) = self.seed {
            parts.push(format!("seed={v}"));
        }
        if let Some(b) = &self.blackouts {
            parts.push(format!("blackouts={}", b.label));
        }
        if let Some(f) = &self.faults {
            parts.push(format!("faults={}", f.label));
        }
        if let Some(v) = self.restart_backoff_s {
            parts.push(format!("backoff={v}"));
        }
        if let Some(v) = self.sched_policy {
            parts.push(format!("sched={}", v.name()));
        }
        if parts.is_empty() {
            "base".to_string()
        } else {
            parts.join(" ")
        }
    }

    /// Parses a point from a JSON object value (the `points` entries of a
    /// sweep spec, or the `point` entries of a search trajectory).
    pub fn from_json_value(value: &av_trace::json::JsonValue) -> Result<SweepPoint, String> {
        use av_trace::json::JsonValue;
        let members = match value {
            JsonValue::Obj(members) => members,
            _ => return Err("point must be a JSON object".to_string()),
        };
        let mut point = SweepPoint::default();
        for (key, value) in members {
            let num =
                || value.as_f64().ok_or_else(|| format!("point key {key:?} must be a number"));
            let text =
                || value.as_str().ok_or_else(|| format!("point key {key:?} must be a string"));
            match key.as_str() {
                "detector" => point.detector = Some(DetectorKind::parse(text()?)?),
                "traffic_density" => point.traffic_density = Some(num()?),
                "camera_rate_hz" => point.camera_rate_hz = Some(num()?),
                "lidar_rate_hz" => point.lidar_rate_hz = Some(num()?),
                "queue_capacity" => {
                    point.queue_capacity = Some(value.as_u64().ok_or_else(|| {
                        "point key \"queue_capacity\" must be an integer".to_string()
                    })? as usize);
                }
                "seed" => {
                    point.seed = Some(
                        value
                            .as_u64()
                            .ok_or_else(|| "point key \"seed\" must be an integer".to_string())?,
                    );
                }
                "blackouts" => point.blackouts = Some(BlackoutSpec::parse(text()?)?),
                "faults" => point.faults = Some(FaultPlanSpec::parse(text()?)?),
                "restart_backoff_s" => point.restart_backoff_s = Some(num()?),
                "sched_policy" => point.sched_policy = Some(SchedPolicyKind::parse(text()?)?),
                other => return Err(format!("unknown point key {other:?}")),
            }
        }
        Ok(point)
    }

    /// Renders the overrides as a JSON object, inverse of
    /// [`SweepPoint::from_json_value`]. Floats print in shortest
    /// round-trip form, so parse-back is bit-exact.
    pub fn to_json(&self) -> String {
        let mut fields = Vec::new();
        if let Some(d) = self.detector {
            fields.push(format!("\"detector\": \"{}\"", d.name()));
        }
        if let Some(v) = self.traffic_density {
            fields.push(format!("\"traffic_density\": {v:?}"));
        }
        if let Some(v) = self.camera_rate_hz {
            fields.push(format!("\"camera_rate_hz\": {v:?}"));
        }
        if let Some(v) = self.lidar_rate_hz {
            fields.push(format!("\"lidar_rate_hz\": {v:?}"));
        }
        if let Some(v) = self.queue_capacity {
            fields.push(format!("\"queue_capacity\": {v}"));
        }
        if let Some(v) = self.seed {
            fields.push(format!("\"seed\": {v}"));
        }
        if let Some(b) = &self.blackouts {
            fields.push(format!("\"blackouts\": \"{}\"", b.label));
        }
        if let Some(f) = &self.faults {
            fields.push(format!("\"faults\": \"{}\"", f.label));
        }
        if let Some(v) = self.restart_backoff_s {
            fields.push(format!("\"restart_backoff_s\": {v:?}"));
        }
        if let Some(v) = self.sched_policy {
            fields.push(format!("\"sched_policy\": \"{}\"", v.name()));
        }
        format!("{{{}}}", fields.join(", "))
    }

    /// Applies the overrides to a base configuration.
    pub fn apply(&self, base: &StackConfig) -> StackConfig {
        let mut config = base.clone();
        if let Some(d) = self.detector {
            config.detector = d;
        }
        if let Some(v) = self.traffic_density {
            config.scenario.traffic_density = v;
        }
        if let Some(v) = self.camera_rate_hz {
            config.camera.rate_hz = v;
        }
        if let Some(v) = self.lidar_rate_hz {
            config.lidar.rate_hz = v;
        }
        if let Some(v) = self.queue_capacity {
            config.queue_capacity = v;
        }
        if let Some(v) = self.seed {
            config.seed = v;
        }
        if let Some(b) = &self.blackouts {
            config.blackouts = b.windows.clone();
        }
        if let Some(f) = &self.faults {
            config.faults = f.plan.clone();
        }
        if let Some(v) = self.restart_backoff_s {
            config.supervision.restart_initial_backoff_s = v;
        }
        if let Some(v) = self.sched_policy {
            config.sched_policy = v;
        }
        config
    }
}

/// A declarative sweep: grid axes crossed in a fixed order, plus
/// explicit extra points.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name; prefixes artifact files and report headers.
    pub name: String,
    /// Base world.
    pub world: WorldKind,
    /// Per-point drive duration override, seconds (a CLI `--duration`
    /// wins over this).
    pub duration_s: Option<f64>,
    /// Detector axis (empty = base detector only).
    pub detectors: Vec<DetectorKind>,
    /// Traffic-density axis.
    pub traffic_density: Vec<f64>,
    /// Camera-rate axis, Hz.
    pub camera_rate_hz: Vec<f64>,
    /// LiDAR-rate axis, Hz.
    pub lidar_rate_hz: Vec<f64>,
    /// Queue-capacity axis.
    pub queue_capacity: Vec<usize>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Blackout-schedule axis.
    pub blackouts: Vec<BlackoutSpec>,
    /// Fault-plan axis.
    pub faults: Vec<FaultPlanSpec>,
    /// Restart initial-backoff axis, seconds.
    pub restart_backoff_s: Vec<f64>,
    /// Scheduling-policy axis.
    pub sched_policy: Vec<SchedPolicyKind>,
    /// Explicit extra points, appended after the grid.
    pub extra_points: Vec<SweepPoint>,
}

impl SweepSpec {
    /// An empty spec (single base point) with the given name and world.
    pub fn new(name: impl Into<String>, world: WorldKind) -> SweepSpec {
        SweepSpec {
            name: name.into(),
            world,
            duration_s: None,
            detectors: Vec::new(),
            traffic_density: Vec::new(),
            camera_rate_hz: Vec::new(),
            lidar_rate_hz: Vec::new(),
            queue_capacity: Vec::new(),
            seeds: Vec::new(),
            blackouts: Vec::new(),
            faults: Vec::new(),
            restart_backoff_s: Vec::new(),
            sched_policy: Vec::new(),
            extra_points: Vec::new(),
        }
    }

    /// The base configuration every point starts from.
    pub fn base_config(&self) -> StackConfig {
        self.world.base_config()
    }

    /// Expands the grid (fixed axis order: detector, density, camera
    /// rate, lidar rate, queue capacity, seed, blackouts, faults,
    /// restart backoff, scheduling policy — outermost first) and appends
    /// the explicit
    /// points. Ordinals number the
    /// result sequentially, so the expansion is deterministic and
    /// independent of how the runner later schedules it.
    ///
    /// An entirely empty grid contributes the single base point —
    /// except when explicit points are given, in which case a
    /// points-only spec runs exactly those points.
    pub fn points(&self) -> Vec<SweepPoint> {
        fn axis<T: Clone>(values: &[T]) -> Vec<Option<T>> {
            if values.is_empty() {
                vec![None]
            } else {
                values.iter().cloned().map(Some).collect()
            }
        }
        let grid_empty = self.detectors.is_empty()
            && self.traffic_density.is_empty()
            && self.camera_rate_hz.is_empty()
            && self.lidar_rate_hz.is_empty()
            && self.queue_capacity.is_empty()
            && self.seeds.is_empty()
            && self.blackouts.is_empty()
            && self.faults.is_empty()
            && self.restart_backoff_s.is_empty()
            && self.sched_policy.is_empty();
        let mut points = Vec::new();
        if grid_empty && !self.extra_points.is_empty() {
            for extra in &self.extra_points {
                let mut point = extra.clone();
                point.ordinal = points.len();
                points.push(point);
            }
            return points;
        }
        for detector in axis(&self.detectors) {
            for traffic_density in axis(&self.traffic_density) {
                for camera_rate_hz in axis(&self.camera_rate_hz) {
                    for lidar_rate_hz in axis(&self.lidar_rate_hz) {
                        for queue_capacity in axis(&self.queue_capacity) {
                            for seed in axis(&self.seeds) {
                                for blackouts in axis(&self.blackouts) {
                                    for faults in axis(&self.faults) {
                                        for restart_backoff_s in axis(&self.restart_backoff_s) {
                                            for sched_policy in axis(&self.sched_policy) {
                                                points.push(SweepPoint {
                                                    ordinal: points.len(),
                                                    detector,
                                                    traffic_density,
                                                    camera_rate_hz,
                                                    lidar_rate_hz,
                                                    queue_capacity,
                                                    seed,
                                                    blackouts: blackouts.clone(),
                                                    faults: faults.clone(),
                                                    restart_backoff_s,
                                                    sched_policy,
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        for extra in &self.extra_points {
            let mut point = extra.clone();
            point.ordinal = points.len();
            points.push(point);
        }
        points
    }

    /// Renders the expanded point list (for `sweep --list`).
    pub fn describe(&self) -> String {
        let points = self.points();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep {:?}: {} point(s), world {}",
            self.name,
            points.len(),
            self.world.name()
        );
        for p in &points {
            let _ = writeln!(out, "  {}  {}", p.id(), p.label());
        }
        out
    }

    /// Validates axis values (positive rates, capacity ≥ 1, positive
    /// duration). Called by [`SweepSpec::from_json`]; builders
    /// constructing specs in code can call it directly.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("sweep name must not be empty".to_string());
        }
        if let Some(d) = self.duration_s {
            if !d.is_finite() || d <= 0.0 {
                return Err(format!("duration_s must be positive and finite, got {d}"));
            }
        }
        let points = self.points();
        for p in &points {
            for v in p.traffic_density.iter().chain(&p.camera_rate_hz).chain(&p.lidar_rate_hz) {
                // `1e999` in a spec parses to +inf — reject it along with
                // zero and negatives rather than simulating forever.
                if !v.is_finite() || *v <= 0.0 {
                    return Err(format!(
                        "point {}: rates and density must be positive and finite",
                        p.id()
                    ));
                }
            }
            if p.queue_capacity == Some(0) {
                return Err(format!("point {}: queue_capacity must be >= 1", p.id()));
            }
            if let Some(v) = p.restart_backoff_s {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!(
                        "point {}: restart_backoff_s must be positive and finite",
                        p.id()
                    ));
                }
            }
        }
        Ok(())
    }
}

mod from_json {
    use super::*;
    use av_trace::json::{self, JsonValue};

    fn as_obj(value: &JsonValue, what: &str) -> Result<Vec<(String, JsonValue)>, String> {
        match value {
            JsonValue::Obj(members) => Ok(members.clone()),
            _ => Err(format!("{what} must be a JSON object")),
        }
    }

    fn f64_list(value: &JsonValue, what: &str) -> Result<Vec<f64>, String> {
        value
            .as_array()
            .ok_or_else(|| format!("{what} must be an array of numbers"))?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| format!("{what} must contain only numbers")))
            .collect()
    }

    fn u64_list(value: &JsonValue, what: &str) -> Result<Vec<u64>, String> {
        value
            .as_array()
            .ok_or_else(|| format!("{what} must be an array of integers"))?
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| format!("{what} must contain only integers")))
            .collect()
    }

    fn str_list<'v>(value: &'v JsonValue, what: &str) -> Result<Vec<&'v str>, String> {
        value
            .as_array()
            .ok_or_else(|| format!("{what} must be an array of strings"))?
            .iter()
            .map(|v| v.as_str().ok_or_else(|| format!("{what} must contain only strings")))
            .collect()
    }

    fn parse_grid(spec: &mut SweepSpec, grid: &JsonValue) -> Result<(), String> {
        for (key, value) in as_obj(grid, "grid")? {
            match key.as_str() {
                "detector" => {
                    spec.detectors = str_list(&value, "grid.detector")?
                        .into_iter()
                        .map(DetectorKind::parse)
                        .collect::<Result<_, _>>()?;
                }
                "traffic_density" => {
                    spec.traffic_density = f64_list(&value, "grid.traffic_density")?;
                }
                "camera_rate_hz" => spec.camera_rate_hz = f64_list(&value, "grid.camera_rate_hz")?,
                "lidar_rate_hz" => spec.lidar_rate_hz = f64_list(&value, "grid.lidar_rate_hz")?,
                "queue_capacity" => {
                    spec.queue_capacity = u64_list(&value, "grid.queue_capacity")?
                        .into_iter()
                        .map(|v| v as usize)
                        .collect();
                }
                "seed" => spec.seeds = u64_list(&value, "grid.seed")?,
                "blackouts" => {
                    spec.blackouts = str_list(&value, "grid.blackouts")?
                        .into_iter()
                        .map(BlackoutSpec::parse)
                        .collect::<Result<_, _>>()?;
                }
                "faults" => {
                    spec.faults = str_list(&value, "grid.faults")?
                        .into_iter()
                        .map(FaultPlanSpec::parse)
                        .collect::<Result<_, _>>()?;
                }
                "restart_backoff_s" => {
                    spec.restart_backoff_s = f64_list(&value, "grid.restart_backoff_s")?;
                }
                "sched_policy" => {
                    spec.sched_policy = str_list(&value, "grid.sched_policy")?
                        .into_iter()
                        .map(SchedPolicyKind::parse)
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(format!("unknown grid axis {other:?}")),
            }
        }
        Ok(())
    }

    /// Parses a sweep spec from its JSON text.
    pub fn parse_spec(text: &str) -> Result<SweepSpec, String> {
        let doc = json::parse(text).map_err(|e| format!("sweep spec is not valid JSON: {e}"))?;
        let mut name = None;
        let mut spec = SweepSpec::new("", WorldKind::Paper);
        for (key, value) in as_obj(&doc, "sweep spec")? {
            match key.as_str() {
                "name" => {
                    name = Some(
                        value
                            .as_str()
                            .ok_or_else(|| "name must be a string".to_string())?
                            .to_string(),
                    );
                }
                "world" => {
                    spec.world = WorldKind::parse(
                        value.as_str().ok_or_else(|| "world must be a string".to_string())?,
                    )?;
                }
                "duration_s" => {
                    spec.duration_s = Some(
                        value.as_f64().ok_or_else(|| "duration_s must be a number".to_string())?,
                    );
                }
                "grid" => parse_grid(&mut spec, &value)?,
                "points" => {
                    spec.extra_points = value
                        .as_array()
                        .ok_or_else(|| "points must be an array".to_string())?
                        .iter()
                        .map(SweepPoint::from_json_value)
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(format!("unknown sweep key {other:?}")),
            }
        }
        spec.name = name.ok_or("sweep spec must have a name")?;
        spec.validate()?;
        Ok(spec)
    }
}

impl SweepSpec {
    /// Parses a spec from JSON text (see `specs/` for examples).
    pub fn from_json(text: &str) -> Result<SweepSpec, String> {
        from_json::parse_spec(text)
    }

    /// The tier-1 gate's sweep: 4 smoke-world points, detector ×
    /// camera rate, a few seconds each.
    pub fn builtin_smoke() -> SweepSpec {
        SweepSpec {
            duration_s: Some(8.0),
            detectors: vec![DetectorKind::Ssd512, DetectorKind::YoloV3],
            camera_rate_hz: vec![10.0, 20.0],
            ..SweepSpec::new("smoke", WorldKind::Smoke)
        }
    }

    /// The E-sweep parameter study: detector × camera rate on the paper
    /// world — 12 points locating SSD512's camera-queue drop cliff.
    pub fn builtin_detector_camera() -> SweepSpec {
        SweepSpec {
            duration_s: Some(60.0),
            detectors: DetectorKind::ALL.to_vec(),
            camera_rate_hz: vec![10.0, 15.0, 20.0, 30.0],
            ..SweepSpec::new("detector_camera", WorldKind::Paper)
        }
    }

    /// The tier-1 scheduler gate's sweep: smoke world, FIFO vs EDF over
    /// two camera rates — 4 points exercising the policy plumbing
    /// end-to-end without paper-scale cost.
    pub fn builtin_sched_smoke() -> SweepSpec {
        SweepSpec {
            duration_s: Some(8.0),
            camera_rate_hz: vec![10.0, 20.0],
            sched_policy: vec![SchedPolicyKind::Fifo, SchedPolicyKind::Edf],
            ..SweepSpec::new("sched_smoke", WorldKind::Smoke)
        }
    }

    /// Named builtin lookup (for `sweep --builtin`).
    pub fn builtin(name: &str) -> Option<SweepSpec> {
        match name {
            "smoke" => Some(SweepSpec::builtin_smoke()),
            "detector-camera" => Some(SweepSpec::builtin_detector_camera()),
            "sched-smoke" => Some(SweepSpec::builtin_sched_smoke()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expansion_is_a_cartesian_product_in_fixed_order() {
        let spec = SweepSpec {
            detectors: vec![DetectorKind::Ssd512, DetectorKind::YoloV3],
            camera_rate_hz: vec![10.0, 20.0],
            ..SweepSpec::new("t", WorldKind::Smoke)
        };
        let points = spec.points();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].id(), "p00");
        assert_eq!(points[0].detector, Some(DetectorKind::Ssd512));
        assert_eq!(points[0].camera_rate_hz, Some(10.0));
        // Innermost axis varies fastest.
        assert_eq!(points[1].detector, Some(DetectorKind::Ssd512));
        assert_eq!(points[1].camera_rate_hz, Some(20.0));
        assert_eq!(points[3].detector, Some(DetectorKind::YoloV3));
        assert_eq!(points[3].label(), "detector=YOLOv3 camera_hz=20");
    }

    #[test]
    fn apply_overrides_only_named_knobs() {
        let spec = SweepSpec::new("t", WorldKind::Smoke);
        let base = spec.base_config();
        let point = SweepPoint {
            camera_rate_hz: Some(30.0),
            queue_capacity: Some(4),
            blackouts: Some(BlackoutSpec::parse("gnss:2-5").unwrap()),
            ..SweepPoint::default()
        };
        let config = point.apply(&base);
        assert_eq!(config.camera.rate_hz, 30.0);
        assert_eq!(config.queue_capacity, 4);
        assert_eq!(config.blackouts.len(), 1);
        assert_eq!(config.blackouts[0].source, Source::Gnss);
        assert_eq!(config.lidar.rate_hz, base.lidar.rate_hz);
        assert_eq!(config.detector, base.detector);
    }

    #[test]
    fn blackout_spec_parses_combined_windows() {
        let spec = BlackoutSpec::parse("lidar:4-7+camera:4.5-7").unwrap();
        assert_eq!(spec.windows.len(), 2);
        assert_eq!(spec.windows[0].source, Source::Lidar);
        assert_eq!(spec.windows[0].from_s, 4.0);
        assert_eq!(spec.windows[1].source, Source::Camera);
        assert_eq!(spec.windows[1].from_s, 4.5);
        assert!(BlackoutSpec::parse("none").unwrap().windows.is_empty());
        assert!(BlackoutSpec::parse("lidar:7-4").is_err());
        assert!(BlackoutSpec::parse("sonar:1-2").is_err());
    }

    #[test]
    fn fault_axes_expand_apply_and_validate() {
        let spec = SweepSpec {
            faults: vec![
                FaultPlanSpec::parse("none").unwrap(),
                FaultPlanSpec::parse("crash:ndt_matching@4").unwrap(),
            ],
            restart_backoff_s: vec![0.25, 1.0],
            ..SweepSpec::new("t", WorldKind::Smoke)
        };
        let points = spec.points();
        assert_eq!(points.len(), 4);
        // Backoff is the innermost axis.
        assert_eq!(points[0].faults.as_ref().unwrap().label, "none");
        assert_eq!(points[0].restart_backoff_s, Some(0.25));
        assert_eq!(points[1].restart_backoff_s, Some(1.0));
        assert_eq!(points[2].faults.as_ref().unwrap().label, "crash:ndt_matching@4");
        assert_eq!(points[3].label(), "faults=crash:ndt_matching@4 backoff=1");

        let config = points[3].apply(&spec.base_config());
        assert_eq!(config.faults.label(), "crash:ndt_matching@4");
        assert_eq!(config.supervision.restart_initial_backoff_s, 1.0);
        let clean = points[0].apply(&spec.base_config());
        assert!(clean.faults.is_empty());

        assert!(FaultPlanSpec::parse("crash:ndt_matching").is_err());
        let bad =
            SweepSpec { restart_backoff_s: vec![-1.0], ..SweepSpec::new("t", WorldKind::Smoke) };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn fault_point_json_round_trips() {
        let point = SweepPoint {
            faults: Some(
                FaultPlanSpec::parse("crash:ndt_matching@4+slow:euclidean_cluster:x2:1-5").unwrap(),
            ),
            restart_backoff_s: Some(0.75),
            ..SweepPoint::default()
        };
        let json = point.to_json();
        let parsed = SweepPoint::from_json_value(&av_trace::json::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed.faults, point.faults);
        assert_eq!(parsed.restart_backoff_s, point.restart_backoff_s);
    }

    #[test]
    fn sched_policy_axis_expands_applies_and_round_trips() {
        let spec = SweepSpec {
            camera_rate_hz: vec![10.0],
            sched_policy: vec![SchedPolicyKind::Fifo, SchedPolicyKind::Edf],
            ..SweepSpec::new("t", WorldKind::Smoke)
        };
        let points = spec.points();
        assert_eq!(points.len(), 2);
        // The policy axis is the innermost: it varies fastest.
        assert_eq!(points[0].sched_policy, Some(SchedPolicyKind::Fifo));
        assert_eq!(points[1].sched_policy, Some(SchedPolicyKind::Edf));
        assert_eq!(points[1].label(), "camera_hz=10 sched=edf");

        let config = points[1].apply(&spec.base_config());
        assert_eq!(config.sched_policy, SchedPolicyKind::Edf);
        let base = points[0].apply(&spec.base_config());
        assert_eq!(base.sched_policy, SchedPolicyKind::Fifo);

        let json = points[1].to_json();
        assert!(json.contains("\"sched_policy\": \"edf\""));
        let parsed = SweepPoint::from_json_value(&av_trace::json::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed.sched_policy, Some(SchedPolicyKind::Edf));

        // Grid parsing, including the clean rejection of unknown names.
        let text = r#"{"name": "s", "world": "smoke",
                       "grid": {"sched_policy": ["fifo", "priority", "edf", "chain"]}}"#;
        assert_eq!(SweepSpec::from_json(text).unwrap().points().len(), 4);
        let bad = r#"{"name": "s", "grid": {"sched_policy": ["lifo"]}}"#;
        let err = SweepSpec::from_json(bad).unwrap_err();
        assert!(err.contains("unknown sched_policy"), "got: {err}");
        let bad_point = r#"{"name": "s", "points": [{"sched_policy": 3}]}"#;
        assert!(SweepSpec::from_json(bad_point).is_err());
    }

    #[test]
    fn json_roundtrip_covers_grid_and_points() {
        let text = r#"{
            "name": "demo",
            "world": "smoke",
            "duration_s": 10.0,
            "grid": {
                "detector": ["SSD512", "YOLOv3"],
                "camera_rate_hz": [10, 20],
                "seed": [2020, 2021]
            },
            "points": [
                {"detector": "SSD300", "blackouts": "lidar:4-7+camera:4-7"}
            ]
        }"#;
        let spec = SweepSpec::from_json(text).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.world, WorldKind::Smoke);
        assert_eq!(spec.duration_s, Some(10.0));
        let points = spec.points();
        assert_eq!(points.len(), 2 * 2 * 2 + 1);
        let last = points.last().unwrap();
        assert_eq!(last.detector, Some(DetectorKind::Ssd300));
        assert_eq!(last.blackouts.as_ref().unwrap().windows.len(), 2);
        assert_eq!(last.ordinal, 8);
    }

    #[test]
    fn json_rejects_unknown_keys_and_bad_values() {
        assert!(SweepSpec::from_json("{\"world\": \"smoke\"}").is_err(), "missing name");
        assert!(SweepSpec::from_json("{\"name\": \"x\", \"bogus\": 1}").is_err());
        assert!(
            SweepSpec::from_json("{\"name\": \"x\", \"grid\": {\"warp\": [1]}}").is_err(),
            "unknown axis"
        );
        assert!(
            SweepSpec::from_json("{\"name\": \"x\", \"grid\": {\"queue_capacity\": [0]}}").is_err(),
            "capacity 0"
        );
        assert!(
            SweepSpec::from_json("{\"name\": \"x\", \"points\": [{\"camera_rate_hz\": -5}]}")
                .is_err(),
            "negative rate"
        );
    }

    #[test]
    fn builtins_expand_to_expected_sizes() {
        assert_eq!(SweepSpec::builtin_smoke().points().len(), 4);
        assert_eq!(SweepSpec::builtin_detector_camera().points().len(), 12);
        assert!(SweepSpec::builtin("smoke").is_some());
        assert!(SweepSpec::builtin("nope").is_none());
        // A points-only spec runs exactly its points — no implicit base.
        let spec = SweepSpec {
            extra_points: vec![SweepPoint::default(), SweepPoint::default()],
            ..SweepSpec::new("t", WorldKind::Smoke)
        };
        assert_eq!(spec.points().len(), 2);
        let listing = SweepSpec::builtin_smoke().describe();
        assert!(listing.contains("4 point(s)"));
        assert!(listing.contains("p03"));
    }
}
