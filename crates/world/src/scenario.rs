//! The scenario: route, buildings, traffic agents, and scene snapshots.

use crate::Route;
use av_des::{Leaf, RngStreams, SnapError, SnapReader, SnapWriter};
use av_geom::{Aabb, Pose, Vec3};
use std::fmt;

/// Class of a dynamic traffic participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgentKind {
    /// A passenger car following the loop.
    Car,
    /// A pedestrian on the sidewalk.
    Pedestrian,
    /// A cyclist at the lane edge.
    Cyclist,
}

const AGENT_KIND_CODES: [AgentKind; 3] =
    [AgentKind::Car, AgentKind::Pedestrian, AgentKind::Cyclist];

/// Checkpoint and bag encoding: a one-byte code.
impl Leaf for AgentKind {
    fn put(&self, w: &mut SnapWriter) {
        w.put_code(self, &AGENT_KIND_CODES);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<AgentKind, SnapError> {
        r.get_code("agent kind", &AGENT_KIND_CODES)
    }
}

impl AgentKind {
    /// Canonical half-extents (x: length/2, y: width/2, z: height/2).
    pub fn half_extents(self) -> Vec3 {
        match self {
            AgentKind::Car => Vec3::new(2.25, 0.9, 0.75),
            AgentKind::Pedestrian => Vec3::new(0.25, 0.25, 0.85),
            AgentKind::Cyclist => Vec3::new(0.9, 0.3, 0.85),
        }
    }

    /// Typical LiDAR return intensity for the surface.
    pub fn intensity(self) -> f32 {
        match self {
            AgentKind::Car => 0.8,
            AgentKind::Pedestrian => 0.55,
            AgentKind::Cyclist => 0.65,
        }
    }
}

impl fmt::Display for AgentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AgentKind::Car => "car",
            AgentKind::Pedestrian => "pedestrian",
            AgentKind::Cyclist => "cyclist",
        };
        f.write_str(name)
    }
}

/// An oriented box obstacle (building or agent body) used by the LiDAR
/// raycaster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObstacleBox {
    /// Pose of the box center (planar yaw orientation). The box center is
    /// at `pose.translation + (0, 0, half_extents.z)` — i.e. the pose sits
    /// on the ground under the box.
    pub pose: Pose,
    /// Half-extents along the box's local axes.
    pub half_extents: Vec3,
    /// LiDAR return intensity of the surface.
    pub intensity: f32,
}

impl ObstacleBox {
    /// Creates a box standing on the ground at `pose`.
    pub fn new(pose: Pose, half_extents: Vec3, intensity: f32) -> ObstacleBox {
        ObstacleBox { pose, half_extents, intensity }
    }

    /// World-frame center of the box volume.
    pub fn center(&self) -> Vec3 {
        self.pose.translation + Vec3::new(0.0, 0.0, self.half_extents.z)
    }

    /// Radius of the bounding sphere (for raycast pruning).
    pub fn bounding_radius(&self) -> f64 {
        self.half_extents.norm()
    }

    /// Ray/box intersection in world coordinates.
    ///
    /// Returns the entry distance along `dir` (which need not be
    /// normalized; `t` is in units of `dir`'s length), or `None` on a miss.
    pub fn ray_intersect(&self, origin: Vec3, dir: Vec3) -> Option<f64> {
        self.rays_from(origin).intersect(dir)
    }

    /// The box as rays from `origin` meet it: what
    /// [`ray_intersect`](Self::ray_intersect) computes from the box and
    /// the origin alone, computed once for every ray of a sweep.
    pub(crate) fn rays_from(&self, origin: Vec3) -> BoxRays {
        // Rays are intersected in the box frame, where the box is an AABB
        // centered at (0, 0, half_z).
        let inv = self.pose.inverse();
        BoxRays {
            inv,
            origin: inv.transform_point(origin),
            aabb: Aabb::from_center_size(
                Vec3::new(0.0, 0.0, self.half_extents.z),
                self.half_extents * 2.0,
            ),
        }
    }
}

/// An [`ObstacleBox`] in its own frame, seen from one ray origin.
pub(crate) struct BoxRays {
    /// World → box frame.
    inv: Pose,
    /// The ray origin in the box frame.
    origin: Vec3,
    aabb: Aabb,
}

impl BoxRays {
    /// [`ObstacleBox::ray_intersect`] of the ray along `dir`.
    #[inline]
    pub(crate) fn intersect(&self, dir: Vec3) -> Option<f64> {
        self.aabb.ray_intersect(self.origin, self.inv.transform_vector(dir))
    }
}

/// The ego vehicle's kinematic state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EgoState {
    /// Pose on the map (ground level, heading = direction of travel).
    pub pose: Pose,
    /// Forward speed, m/s.
    pub speed: f64,
    /// Yaw rate, rad/s.
    pub yaw_rate: f64,
}

/// A dynamic object in a scene snapshot (ground truth).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneObject {
    /// Stable identity across snapshots.
    pub id: u32,
    /// Object class.
    pub kind: AgentKind,
    /// Pose (on the ground, heading = direction of travel).
    pub pose: Pose,
    /// Half-extents of the body box.
    pub half_extents: Vec3,
    /// World-frame velocity, m/s.
    pub velocity: Vec3,
}

impl SceneObject {
    /// The object's body as an [`ObstacleBox`].
    pub fn obstacle(&self) -> ObstacleBox {
        ObstacleBox::new(self.pose, self.half_extents, self.kind.intensity())
    }
}

/// A ground-truth snapshot of the world at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    /// Snapshot time, seconds since drive start.
    pub time: f64,
    /// Ego vehicle state.
    pub ego: EgoState,
    /// All dynamic objects (sensor models cull by range/FOV).
    pub objects: Vec<SceneObject>,
}

impl Scene {
    /// Objects within `range` meters of the ego.
    pub fn objects_within(&self, range: f64) -> impl Iterator<Item = &SceneObject> {
        let ego = self.ego.pose.translation;
        self.objects.iter().filter(move |o| o.pose.translation.distance(ego) <= range)
    }
}

/// Parameters of the synthetic drive.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Master seed for all stochastic elements.
    pub seed: u64,
    /// Drive duration, seconds.
    pub duration_s: f64,
    /// Ego cruise speed, m/s.
    pub ego_speed: f64,
    /// Traffic density multiplier (1.0 ≈ a busy urban block).
    pub traffic_density: f64,
    /// Route half-width (X half-extent of the block), meters.
    pub route_half_w: f64,
    /// Route half-height (Y half-extent), meters.
    pub route_half_h: f64,
    /// Corner radius of the loop, meters.
    pub corner_radius: f64,
    /// Spacing between building sites along the route, meters.
    pub building_spacing: f64,
}

impl Default for ScenarioConfig {
    fn default() -> ScenarioConfig {
        ScenarioConfig::urban_drive()
    }
}

impl ScenarioConfig {
    /// The default 8-minute urban loop, mirroring the paper's drive length.
    pub fn urban_drive() -> ScenarioConfig {
        ScenarioConfig {
            seed: 2020,
            duration_s: 480.0,
            ego_speed: 8.0,
            traffic_density: 1.0,
            route_half_w: 150.0,
            route_half_h: 100.0,
            corner_radius: 20.0,
            building_spacing: 28.0,
        }
    }

    /// A small, fast scenario for unit/integration tests.
    pub fn smoke_test() -> ScenarioConfig {
        ScenarioConfig {
            seed: 7,
            duration_s: 10.0,
            ego_speed: 8.0,
            traffic_density: 0.5,
            route_half_w: 80.0,
            route_half_h: 60.0,
            corner_radius: 15.0,
            building_spacing: 35.0,
        }
    }
}

#[derive(Debug, Clone)]
enum Motion {
    /// Follows the loop at a lateral lane offset; `direction` is +1
    /// (counter-clockwise, with traffic) or −1 (oncoming).
    Loop { start_s: f64, speed: f64, lane: f64, direction: f64 },
    /// Walks back and forth along an arc-length span on the sidewalk.
    Walk { start_s: f64, span: f64, speed: f64, side: f64 },
}

#[derive(Debug, Clone)]
struct Agent {
    id: u32,
    kind: AgentKind,
    motion: Motion,
}

/// A traffic-light signal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LightState {
    /// Proceed.
    Green,
    /// Prepare to stop.
    Yellow,
    /// Stop.
    Red,
}

const LIGHT_STATE_CODES: [LightState; 3] = [LightState::Green, LightState::Yellow, LightState::Red];

/// Checkpoint and bag encoding: a one-byte code.
impl Leaf for LightState {
    fn put(&self, w: &mut SnapWriter) {
        w.put_code(self, &LIGHT_STATE_CODES);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<LightState, SnapError> {
        r.get_code("light state", &LIGHT_STATE_CODES)
    }
}

/// An HD-map traffic-light annotation: the "3D position of traffic
/// lights" the paper's map lacked (§II-A/§III-C), which is why its
/// authors could not stimulate traffic-light recognition. Our synthetic
/// map carries the annotation, so the reproduction exercises the node as
/// an extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficLight {
    /// Stable identity.
    pub id: u32,
    /// Position of the light head (≈5 m above ground).
    pub position: Vec3,
    /// Direction the light faces (unit XY vector) — toward oncoming
    /// traffic.
    pub facing: Vec3,
    /// Green phase duration, seconds.
    pub green_s: f64,
    /// Yellow phase duration, seconds.
    pub yellow_s: f64,
    /// Red phase duration, seconds.
    pub red_s: f64,
    /// Cycle offset, seconds.
    pub phase_s: f64,
}

impl TrafficLight {
    /// The signal state at drive time `t`.
    pub fn state_at(&self, t: f64) -> LightState {
        let cycle = self.green_s + self.yellow_s + self.red_s;
        let phase = (t + self.phase_s).rem_euclid(cycle);
        if phase < self.green_s {
            LightState::Green
        } else if phase < self.green_s + self.yellow_s {
            LightState::Yellow
        } else {
            LightState::Red
        }
    }
}

/// The generated world: route, static buildings, and dynamic agents.
///
/// Everything is a deterministic function of [`ScenarioConfig`]; two worlds
/// built from the same config are identical, and [`World::snapshot`] is a
/// pure function of time — the replayability the paper gets from a ROSBAG.
///
/// ```
/// use av_world::{ScenarioConfig, World};
/// let world = World::generate(&ScenarioConfig::smoke_test());
/// let scene = world.snapshot(1.0);
/// assert!(scene.ego.speed > 0.0);
/// assert!(!scene.objects.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct World {
    config: ScenarioConfig,
    route: Route,
    buildings: Vec<ObstacleBox>,
    agents: Vec<Agent>,
    traffic_lights: Vec<TrafficLight>,
}

impl World {
    /// Generates the world for a scenario.
    pub fn generate(config: &ScenarioConfig) -> World {
        let route = Route::new(config.route_half_w, config.route_half_h, config.corner_radius);
        let streams = RngStreams::new(config.seed);
        let buildings = Self::generate_buildings(config, &route, &streams);
        let agents = Self::generate_agents(config, &route, &streams);
        let traffic_lights = Self::generate_traffic_lights(&route, &streams);
        World { config: config.clone(), route, buildings, agents, traffic_lights }
    }

    fn generate_traffic_lights(route: &Route, streams: &RngStreams) -> Vec<TrafficLight> {
        let mut rng = streams.stream("traffic_lights");
        // One signal near each corner of the block, beside the road,
        // facing oncoming (counter-clockwise) traffic.
        (0..4u32)
            .map(|i| {
                let s = (0.12 + 0.25 * i as f64) * route.length();
                let pose = route.pose_with_offset(s, -4.5);
                let heading = pose.yaw();
                TrafficLight {
                    id: i,
                    position: pose.translation + Vec3::new(0.0, 0.0, 5.0),
                    facing: Vec3::new(-heading.cos(), -heading.sin(), 0.0),
                    green_s: 18.0,
                    yellow_s: 3.0,
                    red_s: 15.0,
                    phase_s: rng.uniform(0.0, 36.0),
                }
            })
            .collect()
    }

    /// The HD map's traffic-light annotations.
    pub fn traffic_lights(&self) -> &[TrafficLight] {
        &self.traffic_lights
    }

    fn generate_buildings(
        config: &ScenarioConfig,
        route: &Route,
        streams: &RngStreams,
    ) -> Vec<ObstacleBox> {
        let mut rng = streams.stream("buildings");
        let mut buildings = Vec::new();
        let mut s = 0.0;
        while s < route.length() {
            for side in [-1.0, 1.0] {
                if rng.chance(0.75) {
                    let setback = rng.uniform(13.0, 19.0);
                    let pose = route.pose_with_offset(s, side * setback);
                    let half = Vec3::new(
                        rng.uniform(5.0, 12.0),
                        rng.uniform(4.0, 8.0),
                        rng.uniform(3.0, 10.0),
                    );
                    buildings.push(ObstacleBox::new(pose, half, 0.45));
                }
            }
            s += config.building_spacing;
        }
        buildings
    }

    fn generate_agents(config: &ScenarioConfig, route: &Route, streams: &RngStreams) -> Vec<Agent> {
        let mut rng = streams.stream("agents");
        let mut agents = Vec::new();
        let mut next_id = 0u32;
        let length = route.length();

        let n_cars = (10.0 * config.traffic_density).round() as usize;
        for _ in 0..n_cars {
            let direction = if rng.chance(0.5) { 1.0 } else { -1.0 };
            // With-traffic cars use the inner lane (same as ego's side);
            // oncoming traffic uses the opposite lane offset.
            let lane = if direction > 0.0 { -1.75 } else { 1.75 };
            agents.push(Agent {
                id: next_id,
                kind: AgentKind::Car,
                motion: Motion::Loop {
                    start_s: rng.uniform(0.0, length),
                    speed: rng.uniform(5.5, 11.0),
                    lane,
                    direction,
                },
            });
            next_id += 1;
        }

        let n_cyclists = (3.0 * config.traffic_density).round() as usize;
        for _ in 0..n_cyclists {
            agents.push(Agent {
                id: next_id,
                kind: AgentKind::Cyclist,
                motion: Motion::Loop {
                    start_s: rng.uniform(0.0, length),
                    speed: rng.uniform(3.0, 6.0),
                    lane: -4.0,
                    direction: 1.0,
                },
            });
            next_id += 1;
        }

        // Pedestrians cluster in the first 40% of the loop — the "downtown"
        // stretch — so scene complexity (and node cost) varies along the
        // drive like it does along the Nagoya recording.
        let n_peds = (12.0 * config.traffic_density).round() as usize;
        for _ in 0..n_peds {
            let start_s = if rng.chance(0.8) {
                rng.uniform(0.0, 0.4 * length)
            } else {
                rng.uniform(0.4 * length, length)
            };
            agents.push(Agent {
                id: next_id,
                kind: AgentKind::Pedestrian,
                motion: Motion::Walk {
                    start_s,
                    span: rng.uniform(20.0, 60.0),
                    speed: rng.uniform(0.8, 1.8),
                    side: if rng.chance(0.5) { -7.0 } else { 7.0 },
                },
            });
            next_id += 1;
        }

        agents
    }

    /// The scenario parameters this world was generated from.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The drive route.
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// Static building obstacles.
    pub fn buildings(&self) -> &[ObstacleBox] {
        &self.buildings
    }

    /// Ground-truth ego pose at `t` seconds (ego follows the right lane at
    /// constant cruise speed).
    pub fn ego_state(&self, t: f64) -> EgoState {
        let s = self.config.ego_speed * t;
        let pose = self.route.pose_with_offset(s, -1.75);
        // Yaw rate from local heading change.
        let ds = 0.05;
        let yaw_next = self.route.pose_with_offset(s + ds, -1.75).yaw();
        let yaw_rate = av_geom::angle_diff(yaw_next, pose.yaw()) / ds * self.config.ego_speed;
        EgoState { pose, speed: self.config.ego_speed, yaw_rate }
    }

    /// Ground-truth snapshot at `t` seconds.
    pub fn snapshot(&self, t: f64) -> Scene {
        let ego = self.ego_state(t);
        let length = self.route.length();
        let objects = self
            .agents
            .iter()
            .map(|agent| {
                let (pose, velocity) = match agent.motion {
                    Motion::Loop { start_s, speed, lane, direction } => {
                        let s = (start_s + direction * speed * t).rem_euclid(length);
                        let mut pose = self.route.pose_with_offset(s, lane);
                        if direction < 0.0 {
                            pose = Pose::planar(
                                pose.translation.x,
                                pose.translation.y,
                                av_geom::normalize_angle(pose.yaw() + std::f64::consts::PI),
                            );
                        }
                        let heading = pose.yaw();
                        let velocity = Vec3::new(heading.cos(), heading.sin(), 0.0) * speed;
                        (pose, velocity)
                    }
                    Motion::Walk { start_s, span, speed, side } => {
                        // Triangular wave over [0, span].
                        let phase = (speed * t) % (2.0 * span);
                        let (offset, dir) =
                            if phase < span { (phase, 1.0) } else { (2.0 * span - phase, -1.0) };
                        let s = (start_s + offset).rem_euclid(length);
                        let mut pose = self.route.pose_with_offset(s, side);
                        if dir < 0.0 {
                            pose = Pose::planar(
                                pose.translation.x,
                                pose.translation.y,
                                av_geom::normalize_angle(pose.yaw() + std::f64::consts::PI),
                            );
                        }
                        let heading = pose.yaw();
                        let velocity = Vec3::new(heading.cos(), heading.sin(), 0.0) * speed;
                        (pose, velocity)
                    }
                };
                SceneObject {
                    id: agent.id,
                    kind: agent.kind,
                    pose,
                    half_extents: agent.kind.half_extents(),
                    velocity,
                }
            })
            .collect();
        Scene { time: t, ego, objects }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = ScenarioConfig::smoke_test();
        let a = World::generate(&config);
        let b = World::generate(&config);
        assert_eq!(a.buildings().len(), b.buildings().len());
        let sa = a.snapshot(3.3);
        let sb = b.snapshot(3.3);
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut config = ScenarioConfig::smoke_test();
        let a = World::generate(&config);
        config.seed = 999;
        let b = World::generate(&config);
        let pa: Vec<_> = a.snapshot(0.0).objects.iter().map(|o| o.pose.translation).collect();
        let pb: Vec<_> = b.snapshot(0.0).objects.iter().map(|o| o.pose.translation).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn ego_follows_route_continuously() {
        let world = World::generate(&ScenarioConfig::smoke_test());
        let mut prev = world.ego_state(0.0);
        for i in 1..200 {
            let t = i as f64 * 0.1;
            let cur = world.ego_state(t);
            let moved = prev.pose.translation.distance(cur.pose.translation);
            assert!(moved < 2.0 * 0.1 * world.config().ego_speed + 1e-6);
            prev = cur;
        }
    }

    #[test]
    fn ego_yaw_rate_nonzero_in_corners() {
        let world = World::generate(&ScenarioConfig::smoke_test());
        let route_len = world.route().length();
        let lap_time = route_len / world.config().ego_speed;
        let max_rate = (0..500)
            .map(|i| world.ego_state(i as f64 * lap_time / 500.0).yaw_rate.abs())
            .fold(0.0f64, f64::max);
        assert!(max_rate > 0.1, "ego never turns? max yaw rate {max_rate}");
    }

    #[test]
    fn objects_move_with_their_velocity() {
        let world = World::generate(&ScenarioConfig::smoke_test());
        let dt = 0.05;
        let s0 = world.snapshot(2.0);
        let s1 = world.snapshot(2.0 + dt);
        for (a, b) in s0.objects.iter().zip(&s1.objects) {
            assert_eq!(a.id, b.id);
            let moved = b.pose.translation - a.pose.translation;
            let predicted = a.velocity * dt;
            // Loose tolerance: direction flips and corners bend paths.
            assert!((moved - predicted).norm() < 0.5, "object {} jumped", a.id);
        }
    }

    #[test]
    fn traffic_density_scales_object_count() {
        let mut config = ScenarioConfig::smoke_test();
        config.traffic_density = 0.5;
        let sparse = World::generate(&config).snapshot(0.0).objects.len();
        config.traffic_density = 2.0;
        let dense = World::generate(&config).snapshot(0.0).objects.len();
        assert!(dense > sparse * 2);
    }

    #[test]
    fn buildings_set_back_from_route() {
        let world = World::generate(&ScenarioConfig::smoke_test());
        assert!(!world.buildings().is_empty());
        // No building may sit on the roadway (centerline ± 5 m).
        let route = world.route();
        for b in world.buildings() {
            let mut min_d = f64::INFINITY;
            let n = 500;
            for i in 0..n {
                let p = route.pose_at(i as f64 * route.length() / n as f64).translation;
                min_d = min_d.min(p.truncate().distance(b.pose.translation.truncate()));
            }
            assert!(min_d > 5.0, "building too close to route: {min_d}");
        }
    }

    #[test]
    fn obstacle_box_ray_intersection_oriented() {
        let pose = Pose::planar(10.0, 0.0, std::f64::consts::FRAC_PI_4);
        let obs = ObstacleBox::new(pose, Vec3::new(2.0, 1.0, 1.5), 0.5);
        // Shooting +X from origin at the box's ground center height.
        let t = obs.ray_intersect(Vec3::new(0.0, 0.0, 1.0), Vec3::X).unwrap();
        assert!(t > 7.0 && t < 10.0, "t = {t}");
        // A ray passing far above misses.
        assert!(obs.ray_intersect(Vec3::new(0.0, 0.0, 10.0), Vec3::X).is_none());
    }

    #[test]
    fn scene_objects_within_filters_by_range() {
        let world = World::generate(&ScenarioConfig::smoke_test());
        let scene = world.snapshot(0.0);
        let near = scene.objects_within(30.0).count();
        let all = scene.objects_within(1e6).count();
        assert!(near <= all);
        assert_eq!(all, scene.objects.len());
    }
}
