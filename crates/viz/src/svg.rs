//! Minimal SVG document builder — how the examples materialize GroupViz
//! circles, Focus-view scatter plots and STATS bar charts without a
//! browser.

use crate::color::Color;

/// An SVG document under construction.
#[derive(Debug, Clone)]
pub struct SvgDoc {
    width: f64,
    height: f64,
    body: String,
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

impl SvgDoc {
    /// New document of the given size.
    pub fn new(width: f64, height: f64) -> Self {
        Self {
            width,
            height,
            body: String::new(),
        }
    }

    /// Filled circle with stroke and a `<title>` tooltip (the paper's
    /// hover-for-description behaviour).
    pub fn circle(&mut self, x: f64, y: f64, r: f64, fill: Color, title: &str) -> &mut Self {
        self.body.push_str(&format!(
            "  <circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"{r:.1}\" fill=\"{}\" \
             fill-opacity=\"0.75\" stroke=\"#333\"><title>{}</title></circle>\n",
            fill.hex(),
            esc(title)
        ));
        self
    }

    /// Small scatter point.
    pub fn point(&mut self, x: f64, y: f64, fill: Color) -> &mut Self {
        self.body.push_str(&format!(
            "  <circle cx=\"{x:.2}\" cy=\"{y:.2}\" r=\"2.5\" fill=\"{}\"/>\n",
            fill.hex()
        ));
        self
    }

    /// Text label.
    pub fn text(&mut self, x: f64, y: f64, size: f64, content: &str) -> &mut Self {
        self.body.push_str(&format!(
            "  <text x=\"{x:.1}\" y=\"{y:.1}\" font-size=\"{size:.0}\" \
             font-family=\"sans-serif\">{}</text>\n",
            esc(content)
        ));
        self
    }

    /// Axis-aligned rectangle (histogram bar).
    pub fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: Color) -> &mut Self {
        self.body.push_str(&format!(
            "  <rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{h:.1}\" \
             fill=\"{}\"/>\n",
            fill.hex()
        ));
        self
    }

    /// Finish the document.
    pub fn finish(&self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" \
             viewBox=\"0 0 {:.0} {:.0}\">\n<rect width=\"100%\" height=\"100%\" fill=\"#fcfcfc\"/>\n{}</svg>\n",
            self.width, self.height, self.width, self.height, self.body
        )
    }
}

/// Render a horizontal bar chart (one STATS histogram) into an SVG string.
pub fn bar_chart(title: &str, bars: &[(String, u64)], width: f64) -> String {
    let row_h = 22.0;
    let height = 40.0 + bars.len() as f64 * row_h;
    let mut doc = SvgDoc::new(width, height);
    doc.text(10.0, 20.0, 14.0, title);
    let max = bars.iter().map(|(_, c)| *c).max().unwrap_or(0).max(1) as f64;
    let label_w = 150.0;
    for (i, (label, count)) in bars.iter().enumerate() {
        let y = 35.0 + i as f64 * row_h;
        doc.text(10.0, y + 12.0, 11.0, label);
        let w = (*count as f64 / max) * (width - label_w - 60.0);
        doc.rect(label_w, y, w, row_h - 6.0, crate::color::Palette::color(0));
        doc.text(label_w + w + 5.0, y + 12.0, 11.0, &count.to_string());
    }
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Palette;

    #[test]
    fn document_structure() {
        let mut doc = SvgDoc::new(100.0, 50.0);
        doc.circle(10.0, 10.0, 5.0, Palette::color(0), "a group")
            .point(20.0, 20.0, Palette::color(1))
            .text(5.0, 45.0, 10.0, "label")
            .rect(0.0, 0.0, 10.0, 10.0, Palette::color(2));
        let svg = doc.finish();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("<circle"));
        assert!(svg.contains("<title>a group</title>"));
        assert!(svg.contains("<rect"));
        assert!(svg.contains("width=\"100\""));
    }

    #[test]
    fn escapes_markup_in_labels() {
        let mut doc = SvgDoc::new(10.0, 10.0);
        doc.text(0.0, 0.0, 10.0, "a<b & \"c\"");
        let svg = doc.finish();
        assert!(svg.contains("a&lt;b &amp; &quot;c&quot;"));
        assert!(!svg.contains("a<b"));
    }

    #[test]
    fn bar_chart_renders_all_bars() {
        let bars = vec![("male".to_string(), 62), ("female".to_string(), 38)];
        let svg = bar_chart("gender", &bars, 400.0);
        assert!(svg.contains("gender"));
        assert!(svg.contains("male"));
        assert!(svg.contains("62"));
        assert_eq!(svg.matches("<rect").count(), 3); // background + 2 bars
    }

    #[test]
    fn empty_bar_chart_is_valid() {
        let svg = bar_chart("empty", &[], 200.0);
        assert!(svg.starts_with("<svg"));
    }
}
