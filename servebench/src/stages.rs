//! Host time of a traced run, split by engine stage from the span ring.
//!
//! The engine stamps every ring event with the host clock (`wall_ns`). It
//! emits `PlanLane`/`PlanChunk` *after* executing a lane's forward pass and
//! before pricing it, then one `TokenSettle` per row. Three intervals
//! therefore tile a run from `RunStart` to `RunEnd` exactly:
//!
//! * dispatch — previous settle (or `RunStart`) → plan event: admission,
//!   scheduling and the lane's forward pass;
//! * price — plan event → first `TokenSettle` of the lane;
//! * settle — first → last `TokenSettle` of the lane.
//!
//! The tail from the last settle to `RunEnd` is dispatch work that found
//! nothing left to plan, so it is counted as dispatch.

use serve::{EventKind, SpanEvent};

/// Host nanoseconds of one run, by stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSplit {
    /// `RunStart` → `RunEnd`.
    pub run_ns: u64,
    /// Sum of the dispatch intervals.
    pub dispatch_ns: u64,
    /// Sum of the price intervals.
    pub price_ns: u64,
    /// Sum of the settle intervals.
    pub settle_ns: u64,
    /// Plan events (lanes plus chunks).
    pub plans: u64,
    /// Settled tokens.
    pub settles: u64,
}

impl StageSplit {
    /// Whether the three stages sum exactly to the run.
    pub fn tiles(&self) -> bool {
        self.dispatch_ns + self.price_ns + self.settle_ns == self.run_ns
    }
}

/// Splits the single run recorded in `events` (oldest first).
///
/// # Errors
///
/// Returns a description when the ring does not hold exactly one complete
/// run, or a token settles outside a planned lane.
pub fn split<'a>(events: impl IntoIterator<Item = &'a SpanEvent>) -> Result<StageSplit, String> {
    let mut out = StageSplit::default();
    let mut start = None;
    let mut end = None;
    // end of the last closed interval
    let mut boundary = 0u64;
    // (plan stamp, first settle, last settle) of the open lane
    let mut lane: Option<(u64, Option<u64>, u64)> = None;
    let close = |lane: &mut Option<(u64, Option<u64>, u64)>, out: &mut StageSplit| -> Option<u64> {
        let (plan, first, last) = lane.take()?;
        Some(match first {
            Some(first) => {
                out.settle_ns += last - first;
                last
            }
            None => plan,
        })
    };
    for e in events {
        match e.kind {
            EventKind::RunStart => {
                if start.is_some() {
                    return Err("more than one run in the ring".to_string());
                }
                start = Some(e.wall_ns);
                boundary = e.wall_ns;
            }
            EventKind::PlanLane | EventKind::PlanChunk => {
                if start.is_none() || end.is_some() {
                    return Err("plan event outside a run".to_string());
                }
                if let Some(b) = close(&mut lane, &mut out) {
                    boundary = b;
                }
                out.dispatch_ns += e.wall_ns - boundary;
                out.plans += 1;
                lane = Some((e.wall_ns, None, e.wall_ns));
            }
            EventKind::TokenSettle => {
                let Some((plan, first, last)) = lane.as_mut() else {
                    return Err("token settled outside a planned lane".to_string());
                };
                if first.is_none() {
                    *first = Some(e.wall_ns);
                    out.price_ns += e.wall_ns - *plan;
                }
                *last = e.wall_ns;
                out.settles += 1;
            }
            EventKind::RunEnd => {
                let Some(s) = start else {
                    return Err("RunEnd without RunStart".to_string());
                };
                if let Some(b) = close(&mut lane, &mut out) {
                    boundary = b;
                }
                out.dispatch_ns += e.wall_ns - boundary;
                out.run_ns = e.wall_ns - s;
                end = Some(e.wall_ns);
            }
            _ => {}
        }
    }
    if end.is_none() {
        return Err("the ring holds no complete run".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, wall_ns: u64) -> SpanEvent {
        SpanEvent {
            kind,
            stream: 0,
            virtual_s: 0.0,
            wall_ns,
            a: 0,
            b: 0.0,
        }
    }

    #[test]
    fn three_intervals_tile_the_run_exactly() {
        use EventKind::*;
        let events = [
            ev(RunStart, 100),
            ev(Admit, 105),
            ev(PlanChunk, 130),
            ev(TokenSettle, 131),
            ev(TokenSettle, 140),
            ev(PlanLane, 170),
            ev(TokenSettle, 175),
            ev(Complete, 176),
            ev(TokenSettle, 180),
            ev(RunEnd, 190),
        ];
        let s = split(&events).unwrap();
        assert_eq!(s.run_ns, 90);
        // dispatch: 100→130, 140→170, 180→190
        assert_eq!(s.dispatch_ns, 30 + 30 + 10);
        // price: 130→131, 170→175
        assert_eq!(s.price_ns, 1 + 5);
        // settle: 131→140, 175→180
        assert_eq!(s.settle_ns, 9 + 5);
        assert!(s.tiles());
        assert_eq!((s.plans, s.settles), (2, 4));
    }

    #[test]
    fn a_lane_without_settles_still_tiles() {
        use EventKind::*;
        let events = [
            ev(RunStart, 0),
            ev(PlanLane, 10),
            ev(PlanLane, 25),
            ev(TokenSettle, 27),
            ev(RunEnd, 40),
        ];
        let s = split(&events).unwrap();
        assert_eq!(
            (s.dispatch_ns, s.price_ns, s.settle_ns),
            (10 + 15 + 13, 2, 0)
        );
        assert!(s.tiles());
    }

    #[test]
    fn malformed_rings_are_rejected() {
        use EventKind::*;
        assert!(split(&[ev(RunStart, 0)]).is_err());
        assert!(split(&[ev(RunStart, 0), ev(TokenSettle, 1), ev(RunEnd, 2)]).is_err());
        assert!(split(&[
            ev(RunStart, 0),
            ev(RunEnd, 1),
            ev(RunStart, 2),
            ev(RunEnd, 3)
        ])
        .is_err());
    }
}
