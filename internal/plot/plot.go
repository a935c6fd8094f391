// Package plot renders small ASCII charts for the experiment tools: line
// charts for time series (backlog, Φ(t), implicit throughput) and log-x
// scatter charts for sweep results. Terminal-grade output only — the
// reproduction's "figures" are these plus the tables `experiments -scale
// full` prints.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Chart is a fixed-size character canvas with axes.
type Chart struct {
	width  int
	height int
	title  string
	xlabel string
	ylabel string
	logX   bool
	series []series
}

type series struct {
	xs, ys []float64
	glyph  byte
	name   string
}

// New creates a chart canvas. Width and height are the plot-area dimensions
// in characters; both are clamped to a minimum of 8.
func New(title string, width, height int) *Chart {
	if width < 8 {
		width = 8
	}
	if height < 8 {
		height = 8
	}
	return &Chart{width: width, height: height, title: title}
}

// XLabel sets the x-axis label.
func (c *Chart) XLabel(s string) *Chart { c.xlabel = s; return c }

// YLabel sets the y-axis label.
func (c *Chart) YLabel(s string) *Chart { c.ylabel = s; return c }

// LogX switches the x-axis to log scale (all x values must be positive).
func (c *Chart) LogX() *Chart { c.logX = true; return c }

// Add appends a series drawn with the given glyph. Lengths must match and
// be nonempty; Add panics otherwise (caller bug).
func (c *Chart) Add(name string, glyph byte, xs, ys []float64) *Chart {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("plot: series must be nonempty with matching lengths")
	}
	c.series = append(c.series, series{xs: xs, ys: ys, glyph: glyph, name: name})
	return c
}

// Render draws the chart.
func (c *Chart) Render() string {
	if len(c.series) == 0 {
		return fmt.Sprintf("%s\n(no data)\n", c.title)
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	tx := func(x float64) float64 {
		if c.logX {
			return math.Log(x)
		}
		return x
	}
	for _, s := range c.series {
		for i := range s.xs {
			x := tx(s.xs[i])
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if s.ys[i] < minY {
				minY = s.ys[i]
			}
			if s.ys[i] > maxY {
				maxY = s.ys[i]
			}
		}
	}
	if minY > 0 && minY < maxY/4 {
		minY = 0 // anchor at zero when the data plausibly starts there
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, c.height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", c.width))
	}
	for _, s := range c.series {
		for i := range s.xs {
			col := int(math.Round((tx(s.xs[i]) - minX) / (maxX - minX) * float64(c.width-1)))
			row := int(math.Round((s.ys[i] - minY) / (maxY - minY) * float64(c.height-1)))
			r := c.height - 1 - row
			grid[r][col] = s.glyph
		}
	}

	var b strings.Builder
	if c.title != "" {
		fmt.Fprintf(&b, "%s\n", c.title)
	}
	if c.ylabel != "" {
		fmt.Fprintf(&b, "%s\n", c.ylabel)
	}
	yTop := fmt.Sprintf("%.3g", maxY)
	yBot := fmt.Sprintf("%.3g", minY)
	margin := len(yTop)
	if len(yBot) > margin {
		margin = len(yBot)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", margin)
		switch i {
		case 0:
			label = fmt.Sprintf("%*s", margin, yTop)
		case c.height - 1:
			label = fmt.Sprintf("%*s", margin, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", margin), strings.Repeat("-", c.width))
	lo, hi := minX, maxX
	if c.logX {
		lo, hi = math.Exp(minX), math.Exp(maxX)
	}
	xAxis := fmt.Sprintf("%.3g .. %.3g", lo, hi)
	if c.xlabel != "" {
		xAxis += "  (" + c.xlabel
		if c.logX {
			xAxis += ", log scale"
		}
		xAxis += ")"
	}
	fmt.Fprintf(&b, "%s  %s\n", strings.Repeat(" ", margin), xAxis)
	if len(c.series) > 1 || c.series[0].name != "" {
		parts := make([]string, 0, len(c.series))
		for _, s := range c.series {
			parts = append(parts, fmt.Sprintf("%c=%s", s.glyph, s.name))
		}
		fmt.Fprintf(&b, "%s  legend: %s\n", strings.Repeat(" ", margin), strings.Join(parts, "  "))
	}
	return b.String()
}

// Sparkline renders ys as a one-line bar sparkline using eighth-block
// ASCII substitutes (" .:-=+*#%@"), normalized to the series range.
func Sparkline(ys []float64) string {
	if len(ys) == 0 {
		return ""
	}
	const ramp = " .:-=+*#%@"
	minY, maxY := ys[0], ys[0]
	for _, y := range ys {
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	if maxY == minY {
		return strings.Repeat(string(ramp[len(ramp)/2]), len(ys))
	}
	var b strings.Builder
	for _, y := range ys {
		idx := int((y - minY) / (maxY - minY) * float64(len(ramp)-1))
		b.WriteByte(ramp[idx])
	}
	return b.String()
}
