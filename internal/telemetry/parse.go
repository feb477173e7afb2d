package telemetry

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// ParseTextTotals is the minimal scrape-side inverse of WriteText: it reads
// a Prometheus text exposition and returns each metric name summed across
// its label combinations (histogram components appear under their expanded
// _bucket/_sum/_count names). Tests use it to compare counter deltas
// across scrapes; it ignores comment lines and skips lines it cannot parse
// rather than failing the whole scrape.
//
// It is robust to the exposition features the exporter actually emits:
// escaped label values (`\"`, `\\`, `\n` — a `}` or `#` inside a quoted
// label must not end the label block or start an exemplar), OpenMetrics
// exemplar suffixes after `#`, and trailing millisecond timestamps.
func ParseTextTotals(r io.Reader) (map[string]float64, error) {
	totals := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// name[{labels}] value [timestamp] [# exemplar] — the label block
		// is skipped with full quote/escape awareness so quoted values may
		// contain spaces, braces, escaped quotes and hashes.
		name := line
		rest := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			end := closingBrace(line, i)
			if end < 0 {
				continue // unterminated label block: not a series line
			}
			name, rest = line[:i], line[end+1:]
		} else if sp := strings.IndexByte(line, ' '); sp >= 0 {
			name, rest = line[:sp], line[sp:]
		} else {
			continue
		}
		// Everything from an (unquoted) '#' on is an exemplar annotation.
		if h := strings.IndexByte(rest, '#'); h >= 0 {
			rest = rest[:h]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue // no value (any trailing timestamp sits AFTER it)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		totals[name] += v
	}
	return totals, sc.Err()
}

// closingBrace returns the index of the '}' terminating the label block
// opened at s[open] ('{'), honoring double-quoted label values with
// backslash escapes — a '}' inside quotes does not close the block.
// Returns -1 when the block never closes.
func closingBrace(s string, open int) int {
	inQuotes := false
	for i := open + 1; i < len(s); i++ {
		switch {
		case inQuotes && s[i] == '\\':
			i++ // skip the escaped character
		case s[i] == '"':
			inQuotes = !inQuotes
		case !inQuotes && s[i] == '}':
			return i
		}
	}
	return -1
}
