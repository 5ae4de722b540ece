//! Named-interval recording.
//!
//! The paper's Fig. 3 is a Gantt-style plot of when *simulation*, *training*
//! and *inference* tasks were running during the molecular-design campaign,
//! with the white gaps exposing GPU idle time. [`Timeline`] records exactly
//! that: spans on named tracks, with queries for busy time, union coverage,
//! utilization, and an ASCII rendering for the repro harness.
//!
//! Storage is one column of `(start, end)` pairs per track name. A span
//! carries no label and owns no string: a track's name is stored once,
//! with its first span, and recording on a known track is a scan over the
//! few track names plus a push. A fleet run records one span per request,
//! so this layout keeps the timeline at 16 bytes a request.

use crate::time::{SimDuration, SimTime};

/// Recorder of spans on named tracks.
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    /// One column per track, in first-use order.
    tracks: Vec<(String, Vec<(SimTime, SimTime)>)>,
}

impl Timeline {
    /// Empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Record a span on `track`. An `end` earlier than `start` is clamped
    /// to a zero-length span.
    pub fn add(&mut self, track: &str, start: SimTime, end: SimTime) {
        let span = (start, end.max(start));
        match self.tracks.iter_mut().find(|(name, _)| name == track) {
            Some((_, col)) => col.push(span),
            None => self.tracks.push((track.to_string(), vec![span])),
        }
    }

    /// Spans on one track as `(start, end)` pairs, in insertion order
    /// (empty for an unknown track).
    pub fn track_spans(&self, track: &str) -> &[(SimTime, SimTime)] {
        self.tracks
            .iter()
            .find(|(name, _)| name == track)
            .map_or(&[], |(_, col)| col)
    }

    /// Names of all tracks with at least one span, sorted.
    pub fn tracks(&self) -> Vec<String> {
        let mut ts: Vec<String> = self.tracks.iter().map(|(name, _)| name.clone()).collect();
        ts.sort();
        ts
    }

    /// The track's spans clipped to `[from, to]` as sorted nanosecond
    /// pairs, empty intersections dropped.
    fn clipped(&self, track: &str, from: SimTime, to: SimTime) -> Vec<(u64, u64)> {
        let mut iv: Vec<(u64, u64)> = self
            .track_spans(track)
            .iter()
            .filter_map(|&(start, end)| {
                let lo = start.max(from).as_nanos();
                let hi = end.min(to).as_nanos();
                (hi > lo).then_some((lo, hi))
            })
            .collect();
        iv.sort_unstable();
        iv
    }

    /// Total busy time on a track within `[from, to]`, counting overlapping
    /// spans once (union of intervals).
    pub fn union_busy(&self, track: &str, from: SimTime, to: SimTime) -> SimDuration {
        let mut total = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (lo, hi) in self.clipped(track, from, to) {
            match cur {
                Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                Some((clo, chi)) => {
                    total += chi - clo;
                    cur = Some((lo, hi));
                }
                None => cur = Some((lo, hi)),
            }
        }
        if let Some((clo, chi)) = cur {
            total += chi - clo;
        }
        SimDuration::from_nanos(total)
    }

    /// Fraction of `[from, to]` covered by the track's union of spans.
    pub fn utilization(&self, track: &str, from: SimTime, to: SimTime) -> f64 {
        let window = to.duration_since(from).as_secs_f64();
        if window <= 0.0 {
            return 0.0;
        }
        self.union_busy(track, from, to).as_secs_f64() / window
    }

    /// Sum of span durations on a track (overlaps counted multiply).
    pub fn total_busy(&self, track: &str) -> SimDuration {
        self.track_spans(track)
            .iter()
            .fold(SimDuration::ZERO, |acc, &(start, end)| {
                acc + end.duration_since(start)
            })
    }

    /// Idle gaps (in the union sense) on a track within `[from, to]`,
    /// returned as `(start, end)` pairs.
    pub fn gaps(&self, track: &str, from: SimTime, to: SimTime) -> Vec<(SimTime, SimTime)> {
        let mut gaps = Vec::new();
        let mut cursor = from.as_nanos();
        for (lo, hi) in self.clipped(track, from, to) {
            if lo > cursor {
                gaps.push((SimTime::from_nanos(cursor), SimTime::from_nanos(lo)));
            }
            cursor = cursor.max(hi);
        }
        if cursor < to.as_nanos() {
            gaps.push((SimTime::from_nanos(cursor), to));
        }
        gaps
    }

    /// Latest end time over all spans (`t = 0` when empty).
    pub fn horizon(&self) -> SimTime {
        self.tracks
            .iter()
            .flat_map(|(_, col)| col.iter().map(|&(_, end)| end))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Render tracks as fixed-width ASCII occupancy rows ('█' busy, '·'
    /// idle), one row per track in sorted order — the textual Fig. 3.
    pub fn render_ascii(&self, width: usize) -> String {
        let end = self.horizon();
        if end == SimTime::ZERO || width == 0 {
            return String::new();
        }
        let tracks = self.tracks();
        let name_w = tracks.iter().map(|t| t.len()).max().unwrap_or(0).max(8);
        let column =
            |t: SimTime| (t.as_nanos() as u128 * width as u128 / end.as_nanos() as u128) as usize;
        let mut out = String::new();
        for track in tracks {
            let mut row = vec!['·'; width];
            for &(start, stop) in self.track_spans(&track) {
                let lo = column(start);
                let hi = column(stop).max(lo + 1).min(width);
                for c in row.iter_mut().take(hi).skip(lo.min(width - 1)) {
                    *c = '█';
                }
            }
            out.push_str(&format!("{track:<name_w$} |"));
            out.extend(row);
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "{:<name_w$} 0s{:>pad$}",
            "",
            format!("{:.1}s", end.as_secs_f64()),
            pad = width
        ));
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn add_records_span_on_its_track() {
        let mut tl = Timeline::new();
        tl.add("gpu", s(1), s(4));
        assert_eq!(tl.track_spans("gpu"), &[(s(1), s(4))]);
        assert_eq!(tl.total_busy("gpu"), SimDuration::from_secs(3));
        assert!(tl.track_spans("cpu").is_empty());
    }

    #[test]
    fn add_clamps_backwards_time() {
        let mut tl = Timeline::new();
        tl.add("t", s(5), s(3));
        assert_eq!(tl.track_spans("t"), &[(s(5), s(5))]);
        assert_eq!(tl.total_busy("t"), SimDuration::ZERO);
    }

    #[test]
    fn union_busy_merges_overlaps() {
        let mut tl = Timeline::new();
        tl.add("cpu", s(0), s(10));
        tl.add("cpu", s(5), s(15));
        tl.add("cpu", s(20), s(25));
        assert_eq!(
            tl.union_busy("cpu", s(0), s(30)),
            SimDuration::from_secs(20)
        );
        assert_eq!(tl.total_busy("cpu"), SimDuration::from_secs(25));
    }

    #[test]
    fn utilization_fraction() {
        let mut tl = Timeline::new();
        tl.add("gpu", s(0), s(5));
        let u = tl.utilization("gpu", s(0), s(10));
        assert!((u - 0.5).abs() < 1e-12);
        assert_eq!(tl.utilization("gpu", s(3), s(3)), 0.0);
    }

    #[test]
    fn gaps_found_between_spans() {
        let mut tl = Timeline::new();
        tl.add("gpu", s(1), s(3));
        tl.add("gpu", s(6), s(8));
        let gaps = tl.gaps("gpu", s(0), s(10));
        assert_eq!(gaps, vec![(s(0), s(1)), (s(3), s(6)), (s(8), s(10))]);
    }

    #[test]
    fn tracks_sorted_unique() {
        let mut tl = Timeline::new();
        tl.add("train", s(0), s(1));
        tl.add("infer", s(0), s(1));
        tl.add("train", s(2), s(3));
        assert_eq!(tl.tracks(), vec!["infer".to_string(), "train".to_string()]);
    }

    #[test]
    fn ascii_render_shape() {
        let mut tl = Timeline::new();
        tl.add("sim", s(0), s(5));
        tl.add("train", s(5), s(10));
        let art = tl.render_ascii(20);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3); // two tracks + axis
        assert!(lines[0].contains('█'));
        assert!(lines[0].contains('·'));
    }

    #[test]
    fn horizon_tracks_latest_end() {
        let mut tl = Timeline::new();
        assert_eq!(tl.horizon(), SimTime::ZERO);
        tl.add("t", s(2), s(9));
        tl.add("t", s(1), s(4));
        assert_eq!(tl.horizon(), s(9));
    }
}
