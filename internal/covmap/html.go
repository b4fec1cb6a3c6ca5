package covmap

import (
	"fmt"
	"html"
	"strings"

	"repro/internal/journal"
)

// WriteHTML renders the report as a self-contained HTML page (the
// /coverage dashboard page and the `paprof -coverage-report -html`
// artifact) in the shell the genealogy report uses.
func (r *Report) WriteHTML(title string) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "<p>%s · feedback=%s · map=%d</p>", html.EscapeString(r.Label), html.EscapeString(r.Feedback), r.MapSize)

	fmt.Fprintf(&b, "<h2>summary</h2><table><tr><th>observed</th><th>resolved</th><th>exact</th><th>ambiguous</th><th>hash-bucket</th><th>collisions</th><th>unresolved</th></tr>")
	fmt.Fprintf(&b, "<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr></table>",
		r.Observed, r.Resolved, r.Exact, r.Ambiguous, r.BucketOnly, r.Collisions, len(r.Unresolved))

	b.WriteString("<h2>per-function coverage</h2><table><tr><th class=l>function</th><th>blocks</th><th>edges</th><th class=l>paths</th></tr>")
	for _, fc := range r.Funcs {
		paths := ""
		switch fc.PathMode {
		case "exact":
			paths = fmt.Sprintf("%d of %d seen", fc.PathsSeen, fc.NumPaths)
			if fc.PathsAmbiguous > 0 {
				paths += fmt.Sprintf(" (+%d ambiguous)", fc.PathsAmbiguous)
			}
		case "hash":
			paths = "hash mode (buckets only)"
		case "overflow":
			paths = fmt.Sprintf("%d: beyond enumeration cap", fc.NumPaths)
		}
		fmt.Fprintf(&b, "<tr><td class=l>%s</td><td>%d/%d</td><td>%d/%d</td><td class=l>%s</td></tr>",
			html.EscapeString(fc.Name), fc.BlocksCovered, fc.Blocks, fc.EdgesCovered, fc.Edges, html.EscapeString(paths))
	}
	b.WriteString("</table>")

	fmt.Fprintf(&b, "<h2>frontier (%d reached-but-unexplored branches)</h2>", len(r.Frontier))
	if r.FrontierNote != "" {
		fmt.Fprintf(&b, "<p>%s</p>", html.EscapeString(r.FrontierNote))
	}
	if len(r.Frontier) > 0 {
		b.WriteString("<table><tr><th>rarity</th><th class=l>function</th><th>block</th><th>line</th><th class=l>unexplored</th><th>@line</th><th class=l>input bytes</th></tr>")
		for _, fr := range r.Frontier {
			rar := "?"
			if fr.Rarity > 0 {
				rar = fmt.Sprintf("b%d", fr.Rarity)
			}
			fmt.Fprintf(&b, "<tr><td>%s</td><td class=l>%s</td><td>b%d</td><td>%d</td><td class=l>%s</td><td>%d</td><td class=l>%s</td></tr>",
				rar, html.EscapeString(fr.FnName), fr.Block, fr.Line, fr.Unexplored, fr.UnexploredLine, html.EscapeString(fr.Dep))
		}
		b.WriteString("</table>")
	}

	b.WriteString("<h2>annotated source</h2><pre>")
	for _, l := range r.Lines {
		cls := ""
		if l.Executable {
			switch l.Covered {
			case 0:
				cls = "miss"
			case 1:
				cls = "amb"
			default:
				cls = "cov"
			}
		}
		line := fmt.Sprintf("<span class=num>%5d %s|</span> %s", l.No, l.marker(), html.EscapeString(l.Text))
		if cls != "" {
			line = fmt.Sprintf("<span class=%s>%s</span>", cls, line)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	b.WriteString("</pre>")
	return journal.Page(title, `.cov{background:#132} .miss{background:#311} .amb{background:#331}
.num{color:#666;user-select:none}
`, b.String())
}
