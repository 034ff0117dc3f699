//! NLV-style lifeline plots.
//!
//! The NetLogger Visualization tool (NLV) draws each event tag on its own
//! horizontal lifeline with time along the X axis; the paper's Figures 10 and
//! 12–17 are NLV plots.  [`LifelinePlot`] renders the same view as monospace
//! text (suitable for terminals and logs), with even/odd frames
//! distinguished the way the paper colours them blue/red.

use crate::collector::EventLog;
use crate::event::Event;
use crate::tags;

/// Options controlling lifeline rendering.
#[derive(Debug, Clone)]
pub struct NlvOptions {
    /// Plot width in character columns (time axis resolution).
    pub width: usize,
    /// Vertical ordering of tags, bottom first (like the paper's figures).
    pub tag_order: Vec<String>,
    /// Mark even frames with `even_marker` and odd frames with `odd_marker`
    /// (the paper's blue/red distinction).
    pub even_marker: char,
    /// Marker for odd frames.
    pub odd_marker: char,
    /// Marker for events with no frame field.
    pub neutral_marker: char,
}

impl Default for NlvOptions {
    fn default() -> Self {
        NlvOptions {
            width: 100,
            tag_order: tags::combined_tag_order().iter().map(|s| s.to_string()).collect(),
            even_marker: 'o',
            odd_marker: 'x',
            neutral_marker: '*',
        }
    }
}

impl NlvOptions {
    /// Options for back-end-only plots.
    pub fn backend_only() -> Self {
        NlvOptions {
            tag_order: tags::BACKEND_TAG_ORDER.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        }
    }

    /// Builder: set plot width.
    pub fn with_width(mut self, width: usize) -> Self {
        self.width = width.max(10);
        self
    }
}

/// A rendered lifeline plot.
#[derive(Debug, Clone)]
pub struct LifelinePlot {
    options: NlvOptions,
    start: f64,
    end: f64,
    /// Events grouped per tag row, in `tag_order` order.
    rows: Vec<Vec<Event>>,
}

impl LifelinePlot {
    /// Build a plot from an event log.
    pub fn new(log: &EventLog, options: NlvOptions) -> Self {
        let start = log.start_time();
        let end = log.end_time().max(start + 1e-9);
        let rows = options
            .tag_order
            .iter()
            .map(|tag| log.with_tag(tag).cloned().collect())
            .collect();
        LifelinePlot {
            options,
            start,
            end,
            rows,
        }
    }

    /// Time span covered by the plot, in seconds.
    pub fn span(&self) -> f64 {
        self.end - self.start
    }

    fn column_for(&self, t: f64) -> usize {
        let frac = ((t - self.start) / (self.end - self.start)).clamp(0.0, 1.0);
        ((frac * (self.options.width - 1) as f64).round() as usize).min(self.options.width - 1)
    }

    fn marker_for(&self, e: &Event) -> char {
        match e.frame() {
            Some(f) if f % 2 == 0 => self.options.even_marker,
            Some(_) => self.options.odd_marker,
            None => self.options.neutral_marker,
        }
    }

    /// Render as monospace text: one line per tag (top of the figure = last
    /// tag in `tag_order`, matching the paper's layout), markers at event
    /// times, and a time axis at the bottom.
    pub fn render(&self) -> String {
        let label_width = self.options.tag_order.iter().map(|t| t.len()).max().unwrap_or(8).max(8);
        let mut out = String::new();
        for (tag, events) in self.options.tag_order.iter().zip(&self.rows).rev() {
            let mut line: Vec<char> = vec!['.'; self.options.width];
            for e in events {
                let col = self.column_for(e.timestamp);
                line[col] = self.marker_for(e);
            }
            out.push_str(&format!("{tag:>label_width$} |"));
            out.extend(line);
            out.push('\n');
        }
        // Time axis.
        out.push_str(&format!("{:>label_width$} +", ""));
        out.push_str(&"-".repeat(self.options.width));
        out.push('\n');
        out.push_str(&format!(
            "{:>label_width$}  {:<width$.1}{:>8.1}s\n",
            "time",
            self.start,
            self.end,
            label_width = label_width,
            width = self.options.width.saturating_sub(8),
        ));
        out
    }

    /// Number of events that fell on each tag row, in `tag_order` order.
    /// Useful for asserting that a run produced a complete profile.
    pub fn row_counts(&self) -> Vec<(String, usize)> {
        self.options
            .tag_order
            .iter()
            .zip(&self.rows)
            .map(|(t, r)| (t.clone(), r.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;

    fn profile_log(frames: i64) -> EventLog {
        let c = Collector::virtual_time();
        let clock = c.clock().clone();
        let be = c.logger("cplant-0", "backend-worker");
        let v = c.logger("viewer", "viewer-worker");
        let mut t = 0.0;
        for f in 0..frames {
            clock.set(t);
            be.log_with(tags::BE_LOAD_START, [(tags::FIELD_FRAME, f as u64)]);
            t += 3.0;
            clock.set(t);
            be.log_with(tags::BE_LOAD_END, [(tags::FIELD_FRAME, f as u64)]);
            t += 8.0;
            clock.set(t);
            be.log_with(tags::BE_RENDER_END, [(tags::FIELD_FRAME, f as u64)]);
            clock.set(t + 0.5);
            v.log_with(tags::V_HEAVYPAYLOAD_END, [(tags::FIELD_FRAME, f as u64)]);
            t += 1.0;
        }
        c.finish()
    }

    #[test]
    fn render_has_one_line_per_tag_plus_axis() {
        let log = profile_log(3);
        let plot = LifelinePlot::new(&log, NlvOptions::default().with_width(60));
        let text = plot.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 16 + 2);
        // Viewer tags are on top, back-end tags at the bottom.
        assert!(lines[0].contains("V_FRAME_END"));
        assert!(lines[15].contains("BE_FRAME_START"));
    }

    #[test]
    fn even_and_odd_frames_use_distinct_markers() {
        let log = profile_log(2);
        let plot = LifelinePlot::new(&log, NlvOptions::default());
        let text = plot.render();
        assert!(text.contains('o'), "even marker missing");
        assert!(text.contains('x'), "odd marker missing");
    }

    #[test]
    fn row_counts_reflect_profile_completeness() {
        let log = profile_log(5);
        let plot = LifelinePlot::new(&log, NlvOptions::backend_only());
        let counts = plot.row_counts();
        let load_end = counts.iter().find(|(t, _)| t == tags::BE_LOAD_END).unwrap();
        assert_eq!(load_end.1, 5);
        let never = counts.iter().find(|(t, _)| t == tags::BE_HEAVY_SEND).unwrap();
        assert_eq!(never.1, 0);
    }

    #[test]
    fn empty_log_renders_without_panic() {
        let log = EventLog::new();
        let plot = LifelinePlot::new(&log, NlvOptions::default());
        let text = plot.render();
        assert!(text.contains("BE_FRAME_START"));
    }
}
