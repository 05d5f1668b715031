//! Deterministic node-fault injection plans.
//!
//! The paper stresses the stack by "stimulating the AV system on a
//! varied number of situations to capture such flaws" (§IV-A); sensor
//! [`Blackout`](crate::stack::Blackout) windows cover the *input* side of
//! that programme. A [`FaultPlan`] covers the *compute and transport*
//! side: crash a node, stall or slow its callbacks for a window, drop or
//! duplicate messages on one bus edge, or skew a sensor driver's timer.
//!
//! Plans are written in the same compact `+`-joined DSL as blackout
//! schedules, so they can ride through sweep specs, search knobs and
//! artifact labels unchanged:
//!
//! | fragment | meaning |
//! |---|---|
//! | `none` | the empty plan |
//! | `crash:NODE@T` | node stops firing at `T` s (supervisor may restart it) |
//! | `stall:NODE:FROM-TO` | callbacks starting inside the window block until it closes |
//! | `slow:NODE:xF:FROM-TO` | service time × `F` inside the window |
//! | `drop:TOPIC>NODE:P:FROM-TO` | each delivery on the edge lost with probability `P` |
//! | `dup:TOPIC>NODE:P:FROM-TO` | each delivery duplicated with probability `P` |
//! | `skew:SENSOR:xF:FROM-TO` | sensor timer period × `F` inside the window |
//!
//! All windows are half-open `[from, to)` seconds, matching
//! [`Blackout::covers`](crate::stack::Blackout::covers). Randomized
//! faults (drop/dup) draw from a dedicated per-fault RNG stream named
//! after [`FaultSpec::label`], so an empty plan leaves every existing
//! stream — and therefore every existing golden hash — bit-identical.

use av_ros::Source;
use std::ops::Range;

/// One injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// The node stops firing at `at_s`: queued and in-flight work is
    /// discarded and further deliveries are lost until a restart.
    Crash {
        /// Node name.
        node: String,
        /// Crash time, seconds into the drive.
        at_s: f64,
    },
    /// Callbacks *starting* inside `[from_s, to_s)` block (occupying no
    /// device) until the window closes, then run normally.
    Stall {
        /// Node name.
        node: String,
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        to_s: f64,
    },
    /// Service demands of callbacks starting inside the window are
    /// inflated by `factor`.
    Slow {
        /// Node name.
        node: String,
        /// Service-time multiplier (> 0; 1.0 is a no-op).
        factor: f64,
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        to_s: f64,
    },
    /// Each delivery of `topic` to `node` inside the window is lost with
    /// probability `rate`.
    Drop {
        /// Topic name.
        topic: String,
        /// Subscribing node.
        node: String,
        /// Loss probability in `[0, 1]`.
        rate: f64,
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        to_s: f64,
    },
    /// Each delivery of `topic` to `node` inside the window is duplicated
    /// with probability `rate`.
    Duplicate {
        /// Topic name.
        topic: String,
        /// Subscribing node.
        node: String,
        /// Duplication probability in `[0, 1]`.
        rate: f64,
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        to_s: f64,
    },
    /// The sensor driver's timer period is multiplied by `factor` for
    /// ticks scheduled inside the window (a drifting clock).
    TimerSkew {
        /// Affected sensor.
        source: Source,
        /// Period multiplier (> 0; 1.0 is a no-op).
        factor: f64,
        /// Window start, seconds.
        from_s: f64,
        /// Window end, seconds.
        to_s: f64,
    },
}

fn parse_seconds(s: &str, what: &str, part: &str) -> Result<f64, String> {
    let v: f64 = s.parse().map_err(|_| format!("fault {part:?}: bad {what} {s:?}"))?;
    if !v.is_finite() {
        return Err(format!("fault {part:?}: {what} must be finite"));
    }
    Ok(v)
}

fn parse_window(s: &str, part: &str) -> Result<(f64, f64), String> {
    let (from, to) =
        s.split_once('-').ok_or_else(|| format!("fault {part:?}: expected from-to window"))?;
    let from_s = parse_seconds(from, "window start", part)?;
    let to_s = parse_seconds(to, "window end", part)?;
    if !(from_s >= 0.0 && to_s > from_s) {
        return Err(format!("fault {part:?}: window must satisfy 0 <= from < to"));
    }
    Ok((from_s, to_s))
}

fn parse_factor(s: &str, part: &str) -> Result<f64, String> {
    let digits = s
        .strip_prefix('x')
        .ok_or_else(|| format!("fault {part:?}: expected factor of the form x2.5"))?;
    let factor = parse_seconds(digits, "factor", part)?;
    if factor <= 0.0 {
        return Err(format!("fault {part:?}: factor must be > 0"));
    }
    Ok(factor)
}

fn parse_rate(s: &str, part: &str) -> Result<f64, String> {
    let rate = parse_seconds(s, "rate", part)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("fault {part:?}: rate must be in [0, 1]"));
    }
    Ok(rate)
}

fn parse_edge(rest: &str, part: &str) -> Result<(String, String, f64, (f64, f64)), String> {
    let (topic, rest) = rest
        .split_once('>')
        .ok_or_else(|| format!("fault {part:?}: expected TOPIC>NODE:RATE:FROM-TO"))?;
    let mut fields = rest.splitn(3, ':');
    let node = fields.next().unwrap_or("");
    let rate = fields.next().ok_or_else(|| format!("fault {part:?}: missing rate"))?;
    let window = fields.next().ok_or_else(|| format!("fault {part:?}: missing window"))?;
    if topic.is_empty() || node.is_empty() {
        return Err(format!("fault {part:?}: topic and node must not be empty"));
    }
    Ok((topic.to_string(), node.to_string(), parse_rate(rate, part)?, parse_window(window, part)?))
}

impl FaultSpec {
    /// Parses one DSL fragment (one `+`-separated part of a plan).
    pub fn parse(part: &str) -> Result<FaultSpec, String> {
        let (kind, rest) =
            part.split_once(':').ok_or_else(|| format!("fault {part:?}: expected kind:details"))?;
        match kind {
            "crash" => {
                let (node, at) = rest
                    .split_once('@')
                    .ok_or_else(|| format!("fault {part:?}: expected crash:NODE@T"))?;
                if node.is_empty() {
                    return Err(format!("fault {part:?}: node must not be empty"));
                }
                let at_s = parse_seconds(at, "crash time", part)?;
                if at_s < 0.0 {
                    return Err(format!("fault {part:?}: crash time must be >= 0"));
                }
                Ok(FaultSpec::Crash { node: node.to_string(), at_s })
            }
            "stall" => {
                let (node, window) = rest
                    .split_once(':')
                    .ok_or_else(|| format!("fault {part:?}: expected stall:NODE:FROM-TO"))?;
                if node.is_empty() {
                    return Err(format!("fault {part:?}: node must not be empty"));
                }
                let (from_s, to_s) = parse_window(window, part)?;
                Ok(FaultSpec::Stall { node: node.to_string(), from_s, to_s })
            }
            "slow" => {
                let mut fields = rest.splitn(3, ':');
                let node = fields.next().unwrap_or("");
                let factor = fields
                    .next()
                    .ok_or_else(|| format!("fault {part:?}: expected slow:NODE:xF:FROM-TO"))?;
                let window =
                    fields.next().ok_or_else(|| format!("fault {part:?}: missing window"))?;
                if node.is_empty() {
                    return Err(format!("fault {part:?}: node must not be empty"));
                }
                let factor = parse_factor(factor, part)?;
                let (from_s, to_s) = parse_window(window, part)?;
                Ok(FaultSpec::Slow { node: node.to_string(), factor, from_s, to_s })
            }
            "drop" => {
                let (topic, node, rate, (from_s, to_s)) = parse_edge(rest, part)?;
                Ok(FaultSpec::Drop { topic, node, rate, from_s, to_s })
            }
            "dup" => {
                let (topic, node, rate, (from_s, to_s)) = parse_edge(rest, part)?;
                Ok(FaultSpec::Duplicate { topic, node, rate, from_s, to_s })
            }
            "skew" => {
                let mut fields = rest.splitn(3, ':');
                let source = fields.next().unwrap_or("");
                let factor = fields
                    .next()
                    .ok_or_else(|| format!("fault {part:?}: expected skew:SENSOR:xF:FROM-TO"))?;
                let window =
                    fields.next().ok_or_else(|| format!("fault {part:?}: missing window"))?;
                let source = Source::parse(source)
                    .ok_or_else(|| format!("fault {part:?}: unknown sensor source {source:?}"))?;
                let factor = parse_factor(factor, part)?;
                let (from_s, to_s) = parse_window(window, part)?;
                Ok(FaultSpec::TimerSkew { source, factor, from_s, to_s })
            }
            other => Err(format!(
                "fault {part:?}: unknown kind {other:?} (expected crash, stall, slow, drop, dup or skew)"
            )),
        }
    }

    /// Canonical DSL fragment for this fault — usable as a display label
    /// and as the suffix of its dedicated RNG stream name
    /// (`fault-{label}`). Floats print in shortest round-trip form, so
    /// `parse(label())` reconstructs the fault exactly.
    pub fn label(&self) -> String {
        match self {
            FaultSpec::Crash { node, at_s } => format!("crash:{node}@{at_s}"),
            FaultSpec::Stall { node, from_s, to_s } => format!("stall:{node}:{from_s}-{to_s}"),
            FaultSpec::Slow { node, factor, from_s, to_s } => {
                format!("slow:{node}:x{factor}:{from_s}-{to_s}")
            }
            FaultSpec::Drop { topic, node, rate, from_s, to_s } => {
                format!("drop:{topic}>{node}:{rate}:{from_s}-{to_s}")
            }
            FaultSpec::Duplicate { topic, node, rate, from_s, to_s } => {
                format!("dup:{topic}>{node}:{rate}:{from_s}-{to_s}")
            }
            FaultSpec::TimerSkew { source, factor, from_s, to_s } => {
                format!("skew:{}:x{factor}:{from_s}-{to_s}", source.name().to_ascii_lowercase())
            }
        }
    }

    /// The node a crash/stall/slow/drop/dup fault targets (`None` for
    /// timer skews, which target a sensor driver, not a bus node).
    pub fn target_node(&self) -> Option<&str> {
        match self {
            FaultSpec::Crash { node, .. }
            | FaultSpec::Stall { node, .. }
            | FaultSpec::Slow { node, .. }
            | FaultSpec::Drop { node, .. }
            | FaultSpec::Duplicate { node, .. } => Some(node),
            FaultSpec::TimerSkew { .. } => None,
        }
    }

    /// The topic, the node and the window of a drop or dup fault.
    fn edge_window(&self) -> Option<(&str, &str, Range<f64>)> {
        match self {
            FaultSpec::Drop { topic, node, from_s, to_s, .. }
            | FaultSpec::Duplicate { topic, node, from_s, to_s, .. } => {
                Some((topic, node, *from_s..*to_s))
            }
            _ => None,
        }
    }
}

/// A complete fault schedule for one run. The default (empty) plan
/// injects nothing and leaves the run bit-identical to a plan-free
/// build.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The injected faults, in plan order.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Parses a plan string: `none`, or `+`-separated
    /// [`FaultSpec`] fragments, e.g.
    /// `crash:ndt_matching@4+drop:/image_raw>vision_detector:0.5:2-6`.
    ///
    /// Drop and dup faults on one `topic>node` edge must have disjoint
    /// windows (`2-4` and `4-6` touch, which is fine): a delivery meets
    /// only the first fault armed on its edge whose window holds it, so
    /// an overlapping second fault would never fire. Such a plan is
    /// rejected with both fragments named.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        if s == "none" || s.is_empty() {
            return Ok(FaultPlan::default());
        }
        let parts: Vec<&str> = s.split('+').collect();
        let faults = parts.iter().copied().map(FaultSpec::parse).collect::<Result<Vec<_>, _>>()?;
        let edges: Vec<_> = faults.iter().map(FaultSpec::edge_window).collect();
        for (j, b) in edges.iter().enumerate() {
            for (i, a) in edges[..j].iter().enumerate() {
                if let (Some((topic, node, a)), Some((b_topic, b_node, b))) = (a, b) {
                    if (topic, node) == (b_topic, b_node) && a.start < b.end && b.start < a.end {
                        return Err(format!(
                            "faults {:?} and {:?}: windows on one edge overlap",
                            parts[i], parts[j]
                        ));
                    }
                }
            }
        }
        Ok(FaultPlan { faults })
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Canonical plan string: `none` for the empty plan, else the
    /// `+`-joined fault labels.
    pub fn label(&self) -> String {
        if self.faults.is_empty() {
            "none".to_string()
        } else {
            self.faults.iter().map(FaultSpec::label).collect::<Vec<_>>().join("+")
        }
    }

    /// The nodes crashed by this plan, in plan order (the supervisor's
    /// watch list).
    pub fn crashed_nodes(&self) -> Vec<&str> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                FaultSpec::Crash { node, .. } => Some(node.as_str()),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parses_every_fault_kind_and_round_trips() {
        let text = "crash:ndt_matching@4+stall:vision_detector:2-5\
                    +slow:euclidean_cluster:x2.5:1-9\
                    +drop:/points_raw>ray_ground_filter:0.25:3-6\
                    +dup:/image_raw>vision_detector:1:0-2\
                    +skew:lidar:x1.5:2-8";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.faults.len(), 6);
        assert_eq!(
            plan.faults[0],
            FaultSpec::Crash { node: "ndt_matching".to_string(), at_s: 4.0 }
        );
        assert_eq!(
            plan.faults[3],
            FaultSpec::Drop {
                topic: "/points_raw".to_string(),
                node: "ray_ground_filter".to_string(),
                rate: 0.25,
                from_s: 3.0,
                to_s: 6.0,
            }
        );
        assert!(matches!(
            plan.faults[5],
            FaultSpec::TimerSkew { source: Source::Lidar, factor, from_s, to_s }
                if factor == 1.5 && from_s == 2.0 && to_s == 8.0
        ));
        // label() is the canonical spelling; parse(label()) is identity.
        let relabeled = FaultPlan::parse(&plan.label()).unwrap();
        assert_eq!(relabeled, plan);
        assert_eq!(plan.crashed_nodes(), vec!["ndt_matching"]);
    }

    #[test]
    fn empty_plan_spellings() {
        assert!(FaultPlan::parse("none").unwrap().is_empty());
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::default().is_empty());
        assert_eq!(FaultPlan::default().label(), "none");
    }

    #[test]
    fn validation_rejects_malformed_fragments() {
        // Windows: non-finite, inverted, negative.
        assert!(FaultPlan::parse("stall:n:1e999-2").is_err());
        assert!(FaultPlan::parse("stall:n:5-2").is_err());
        assert!(FaultPlan::parse("stall:n:2-2").is_err());
        // Crash time must be finite and non-negative.
        assert!(FaultPlan::parse("crash:n@-1").is_err());
        assert!(FaultPlan::parse("crash:n@inf").is_err());
        assert!(FaultPlan::parse("crash:@4").is_err());
        // Rates clamp to [0, 1].
        assert!(FaultPlan::parse("drop:/t>n:1.5:0-1").is_err());
        assert!(FaultPlan::parse("drop:/t>n:-0.1:0-1").is_err());
        // Factors must be positive, with the x prefix.
        assert!(FaultPlan::parse("slow:n:x0:0-1").is_err());
        assert!(FaultPlan::parse("slow:n:2.5:0-1").is_err());
        assert!(FaultPlan::parse("skew:lidar:x-2:0-1").is_err());
        // Unknown kinds and sources.
        assert!(FaultPlan::parse("melt:n:0-1").is_err());
        assert!(FaultPlan::parse("skew:sonar:x2:0-1").is_err());
        // Edge faults need both endpoints.
        assert!(FaultPlan::parse("drop:/t:0.5:0-1").is_err());
        assert!(FaultPlan::parse("drop:>n:0.5:0-1").is_err());
    }

    #[test]
    fn overlapping_windows_on_one_edge_are_rejected() {
        let drop = "drop:/points_raw>ray_ground_filter:0:2-6";
        let dup = "dup:/points_raw>ray_ground_filter:1:5-8";
        let err = FaultPlan::parse(&format!("{drop}+crash:n@1+{dup}")).unwrap_err();
        assert!(err.contains(drop) && err.contains(dup), "{err}");
        // Two of one kind, and one window inside the other.
        assert!(FaultPlan::parse("drop:/t>n:0.5:2-6+drop:/t>n:0.5:2-6").is_err());
        assert!(FaultPlan::parse("dup:/t>n:0.5:1-9+drop:/t>n:0.5:3-4").is_err());
        // Touching windows, and one window on two different edges.
        assert!(FaultPlan::parse("drop:/t>n:0.5:2-4+dup:/t>n:0.5:4-6").is_ok());
        assert!(FaultPlan::parse("drop:/t>n:0.5:2-6+drop:/t>m:0.5:2-6").is_ok());
        assert!(FaultPlan::parse("drop:/t>n:0.5:2-6+drop:/u>n:0.5:2-6").is_ok());
        // Node faults on the edge's node do not count.
        assert!(FaultPlan::parse("drop:/t>n:0.5:2-6+stall:n:2-6").is_ok());
    }

    #[test]
    fn target_node_covers_node_faults_only() {
        assert_eq!(
            FaultSpec::parse("crash:ndt_matching@4").unwrap().target_node(),
            Some("ndt_matching")
        );
        assert_eq!(FaultSpec::parse("skew:imu:x2:0-1").unwrap().target_node(), None);
    }
}
