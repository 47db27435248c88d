package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/model"
)

// The noctrace v1 text format is line-oriented:
//
//	# comments and blank lines are ignored
//	noctrace v1
//	name <string>
//	procs <n>
//	msg <id> <src> <dst> <start> <finish> <bytes>
//	phase <label> <start> <finish> <computeAfter> <msgID>...
//
// Message lines must precede phase lines that reference them.

// Encode writes the pattern in noctrace v1 format. Numbers are rendered as
// fmt's %d and %g would (shortest float that parses back exactly), through
// strconv into one line buffer: the server encodes every request's pattern
// to derive its key, and a Fprintf per message dominated that.
func Encode(w io.Writer, p *model.Pattern) error {
	bw := bufio.NewWriter(w)
	var line []byte
	str := func(v string) { line = append(line, v...) }
	num := func(v int) { line = strconv.AppendInt(append(line, ' '), int64(v), 10) }
	flt := func(v float64) { line = strconv.AppendFloat(append(line, ' '), v, 'g', -1, 64) }
	end := func() {
		line = append(line, '\n')
		bw.Write(line)
		line = line[:0]
	}
	str("noctrace v1")
	end()
	if p.Name != "" {
		str("name ")
		str(strings.ReplaceAll(p.Name, " ", "_"))
		end()
	}
	str("procs")
	num(p.Procs)
	end()
	for _, m := range p.Messages {
		str("msg")
		num(m.ID)
		num(m.Src)
		num(m.Dst)
		flt(m.Start)
		flt(m.Finish)
		num(m.Bytes)
		end()
	}
	for _, ph := range p.Phases {
		label := ph.Label
		if label == "" {
			label = "-"
		}
		str("phase ")
		str(strings.ReplaceAll(label, " ", "_"))
		flt(ph.Start)
		flt(ph.Finish)
		flt(ph.ComputeAfter)
		for _, mi := range ph.Messages {
			num(mi)
		}
		end()
	}
	return bw.Flush()
}

// Decode parses a noctrace v1 stream and validates the result.
func Decode(r io.Reader) (*model.Pattern, error) {
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
