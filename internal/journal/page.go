package journal

import (
	"fmt"
	"html"
	"io"
	"strings"
)

// pageStyle is the look the HTML reports share.
const pageStyle = `body{font-family:monospace;background:#111;color:#ddd;margin:2em}
h1,h2{color:#8cf} a{color:#8cf} table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #444;padding:2px 10px;text-align:right}
th{color:#8cf} td.l,th.l{text-align:left} pre{color:#bbb}
`

// Page renders a self-contained HTML page, the shell of the genealogy
// report, the coverage report and the live dashboard: the document
// head with the escaped title and the shared style plus the page's own
// rules, the title as the heading, then the body markup.
func Page(title, style, body string) []byte {
	t := html.EscapeString(title)
	return fmt.Appendf(nil, "<!doctype html><html><head><meta charset=\"utf-8\"><title>%s</title><style>\n%s%s</style></head><body><h1>%s</h1>%s</body></html>",
		t, pageStyle, style, t, body)
}

// preSection writes a report section: the heading, then the text
// render writes, escaped, as a <pre> block.
func preSection(b *strings.Builder, heading string, render func(w io.Writer)) {
	var text strings.Builder
	render(&text)
	fmt.Fprintf(b, "<h2>%s</h2><pre>%s</pre>", html.EscapeString(heading), html.EscapeString(text.String()))
}
