package synth

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Appender writes JSON documents straight into a byte slice, in one of the
// two layouts encoding/json gives them: compact, as json.Marshal writes a
// value, or indented, as json.Indent writes it with prefix "" and a
// two-space indent, starting at any nesting depth. The depth is what lets a
// design be written once where a larger indented document embeds it: the
// server splices a design rendered at depth 1 into its response. Nothing
// here escapes differently from encoding/json: a string that needs any
// escaping goes through json.Marshal.
//
// Callers write values in document order: Open, then Key and a value per
// field (or a value per element), then Close. Appender checks nothing; the
// tests hold every document it writes to encoding/json byte for byte.
type Appender struct {
	B      []byte
	indent bool
	depth  int
	first  bool // the next element is the first of its container
	value  bool // a key was just written: the next value is its field's
	// sorted holds the route order of each table Design has written, so a
	// table written again after Reset — the same design in the other form —
	// is not sorted again.
	sorted []tableFlows
}

// tableFlows is a routing table's flows in SortedFlows order.
type tableFlows struct {
	table *routing.Table
	flows []model.Flow
}

// NewAppender returns an Appender that appends one value to b: indented as
// if nested depth levels deep, or compact. The value starts where b ends, so
// what comes before it (a key, or nothing) is the caller's.
func NewAppender(b []byte, indented bool, depth int) *Appender {
	return &Appender{B: b, indent: indented, depth: depth, value: true}
}

// Reset makes a the Appender NewAppender(b, indented, depth) returns, except
// that it keeps the route orders of the tables it has written: a caller
// that writes one document in both forms sorts each table's flows once. The
// tables must not change in between.
func (a *Appender) Reset(b []byte, indented bool, depth int) {
	*a = Appender{B: b, indent: indented, depth: depth, value: true, sorted: a.sorted}
}

// sortedFlows returns table.SortedFlows(), sorted once per table.
func (a *Appender) sortedFlows(table *routing.Table) []model.Flow {
	for _, tf := range a.sorted {
		if tf.table == table {
			return tf.flows
		}
	}
	flows := table.SortedFlows()
	a.sorted = append(a.sorted, tableFlows{table, flows})
	return flows
}

// indentSpaces is sliced for each indented line; deeper nesting appends it
// repeatedly.
const indentSpaces = "                                "

// newline ends the current line and indents the next one to the depth.
func (a *Appender) newline() {
	a.B = append(a.B, '\n')
	for n := 2 * a.depth; n > 0; n -= len(indentSpaces) {
		a.B = append(a.B, indentSpaces[:min(n, len(indentSpaces))]...)
	}
}

// elem writes what goes before a value: nothing after a key or for the
// document's one value, else the separator from the previous element and,
// indented, a fresh line.
func (a *Appender) elem() {
	if a.value {
		a.value = false
		return
	}
	if a.first {
		a.first = false
	} else {
		a.B = append(a.B, ',')
	}
	if a.indent {
		a.newline()
	}
}

// Open starts an object ('{') or an array ('[').
func (a *Appender) Open(c byte) {
	a.elem()
	a.B = append(a.B, c)
	a.depth++
	a.first = true
}

// Close ends the innermost container with '}' or ']'. An empty one stays on
// its line, as json.Indent leaves "{}" and "[]".
func (a *Appender) Close(c byte) {
	a.depth--
	if !a.first && a.indent {
		a.newline()
	}
	a.first = false
	a.B = append(a.B, c)
}

// Key writes a field name, which must need no escaping; the field's value
// comes next.
func (a *Appender) Key(k string) {
	a.elem()
	a.B = append(a.B, '"')
	a.B = append(a.B, k...)
	a.B = append(a.B, '"', ':')
	if a.indent {
		a.B = append(a.B, ' ')
	}
	a.value = true
}

// Int writes an integer.
func (a *Appender) Int(v int) {
	a.elem()
	a.B = strconv.AppendInt(a.B, int64(v), 10)
}

// Null writes null.
func (a *Appender) Null() {
	a.elem()
	a.B = append(a.B, "null"...)
}

// String writes s as encoding/json does: quoted as it is when no byte of it
// needs escaping (HTML's <, > and & included), through json.Marshal
// otherwise, which also replaces invalid UTF-8 and escapes U+2028 and
// U+2029.
func (a *Appender) String(s string) {
	a.elem()
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			a.B = append(a.B, q...)
			return
		}
	}
	a.B = append(a.B, '"')
	a.B = append(a.B, s...)
	a.B = append(a.B, '"')
}

// Ints writes vs as an array, empty or not.
func Ints[T ~int](a *Appender, vs []T) {
	a.Open('[')
	for _, v := range vs {
		a.Int(int(v))
	}
	a.Close(']')
}

// Design writes the generated network and its routing table as a design v1
// document: the layout SaveDesign writes, in the Appender's form. Lists a
// design v1 encoder leaves nil are null: the switch, pipe and route lists
// of a design without any, and a route's switch list when it has none.
func (a *Appender) Design(net *topology.Network, table *routing.Table) {
	a.Open('{')
	a.Key("name")
	a.String(net.Name)
	a.Key("procs")
	a.Int(net.Procs)
	a.Key("switches")
	if len(net.Switches) == 0 {
		a.Null()
	} else {
		a.Open('[')
		for _, sw := range net.Switches {
			Ints(a, sw.Procs)
		}
		a.Close(']')
	}
	a.Key("pipes")
	if len(net.Pipes) == 0 {
		a.Null()
	} else {
		a.Open('[')
		for _, p := range net.Pipes {
			a.Open('{')
			a.Key("a")
			a.Int(int(p.A))
			a.Key("b")
			a.Int(int(p.B))
			a.Key("width")
			a.Int(p.Width)
			a.Close('}')
		}
		a.Close(']')
	}
	a.Key("routes")
	flows := a.sortedFlows(table)
	if len(flows) == 0 {
		a.Null()
	} else {
		a.Open('[')
		for _, f := range flows {
			r := table.Routes[f]
			a.Open('{')
			a.Key("src")
			a.Int(f.Src)
			a.Key("dst")
			a.Int(f.Dst)
			a.Key("switches")
			if len(r.Switches) == 0 {
				a.Null()
			} else {
				Ints(a, r.Switches)
			}
			a.Key("links")
			Ints(a, r.Links)
			a.Close('}')
		}
		a.Close(']')
	}
	a.Close('}')
}
