package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/model"
)

// DecodeFields, DecodeEdgeInputs and SamePattern expose the decoder oracle,
// its edge inputs and its equality to the package's external tests.
var (
	DecodeFields     = decodeFields
	DecodeEdgeInputs = decodeEdgeInputs
	SamePattern      = samePattern
)

// samePattern reports whether two decoded patterns are equal as
// reflect.DeepEqual would find them, a nil slice unequal to an empty one,
// except that floats compare by their bits: the same NaN is equal to itself
// (a phase's start and finish may be NaN) and -0 is not equal to 0.
func samePattern(a, b *model.Pattern) bool {
	sameFloat := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	sameMessage := func(m, n model.Message) bool {
		return m.ID == n.ID && m.Src == n.Src && m.Dst == n.Dst &&
			sameFloat(m.Start, n.Start) && sameFloat(m.Finish, n.Finish) && m.Bytes == n.Bytes
	}
	samePhase := func(p, q model.Phase) bool {
		return p.Label == q.Label && sameFloat(p.Start, q.Start) && sameFloat(p.Finish, q.Finish) &&
			sameFloat(p.ComputeAfter, q.ComputeAfter) &&
			(p.Messages == nil) == (q.Messages == nil) && slices.Equal(p.Messages, q.Messages)
	}
	return a.Name == b.Name && a.Procs == b.Procs &&
		(a.Messages == nil) == (b.Messages == nil) && slices.EqualFunc(a.Messages, b.Messages, sameMessage) &&
		(a.Phases == nil) == (b.Phases == nil) && slices.EqualFunc(a.Phases, b.Phases, samePhase)
}

// decodeFields is Decode as it was written over sc.Text() and
// strings.Fields: the oracle the byte-level decoder must agree with on every
// input, in the pattern it returns or in its error's text.
func decodeFields(r io.Reader) (*model.Pattern, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	p := &model.Pattern{}
	lineno := 0
	sawHeader := false
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if !sawHeader {
			if len(fields) != 2 || fields[0] != "noctrace" || fields[1] != "v1" {
				return nil, fmt.Errorf("line %d: expected header \"noctrace v1\", got %q", lineno, line)
			}
			sawHeader = true
			continue
		}
		switch fields[0] {
		case "name":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: name takes one argument", lineno)
			}
			p.Name = fields[1]
		case "procs":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: procs takes one argument", lineno)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad proc count %q: %v", lineno, fields[1], err)
			}
			p.Procs = n
		case "msg":
			if len(fields) != 7 {
				return nil, fmt.Errorf("line %d: msg takes 6 arguments, got %d", lineno, len(fields)-1)
			}
			var m model.Message
			var err error
			if m.ID, err = strconv.Atoi(fields[1]); err != nil {
				return nil, fmt.Errorf("line %d: bad msg id: %v", lineno, err)
			}
			if m.Src, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("line %d: bad src: %v", lineno, err)
			}
			if m.Dst, err = strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("line %d: bad dst: %v", lineno, err)
			}
			if m.Start, err = strconv.ParseFloat(fields[4], 64); err != nil {
				return nil, fmt.Errorf("line %d: bad start: %v", lineno, err)
			}
			if m.Finish, err = strconv.ParseFloat(fields[5], 64); err != nil {
				return nil, fmt.Errorf("line %d: bad finish: %v", lineno, err)
			}
			if m.Bytes, err = strconv.Atoi(fields[6]); err != nil {
				return nil, fmt.Errorf("line %d: bad bytes: %v", lineno, err)
			}
			p.Messages = append(p.Messages, m)
		case "phase":
			if len(fields) < 5 {
				return nil, fmt.Errorf("line %d: phase takes at least 4 arguments", lineno)
			}
			ph := model.Phase{Label: fields[1]}
			if ph.Label == "-" {
				ph.Label = ""
			}
			var err error
			if ph.Start, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, fmt.Errorf("line %d: bad phase start: %v", lineno, err)
			}
			if ph.Finish, err = strconv.ParseFloat(fields[3], 64); err != nil {
				return nil, fmt.Errorf("line %d: bad phase finish: %v", lineno, err)
			}
			if ph.ComputeAfter, err = strconv.ParseFloat(fields[4], 64); err != nil {
				return nil, fmt.Errorf("line %d: bad compute gap: %v", lineno, err)
			}
			for _, f := range fields[5:] {
				mi, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("line %d: bad message ref %q: %v", lineno, f, err)
				}
				ph.Messages = append(ph.Messages, mi)
			}
			p.Phases = append(p.Phases, ph)
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("empty input: missing noctrace header")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
