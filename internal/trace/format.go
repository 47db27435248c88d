package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

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
//
// It reads each line in place (sc.Bytes), splits it into fields exactly as
// strings.Fields would after strings.TrimSpace, and parses numbers from the
// field bytes, so a line costs no allocation: only names, phase labels and
// phase reference lists are copied out. Every input is accepted or rejected,
// with the same error text, as the string-per-line decoder it replaced
// (decodeFields in the tests).
func Decode(r io.Reader) (*model.Pattern, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	p := &model.Pattern{}
	// A reader that knows its length (the server's strings.Reader) sizes the
	// message slice from it, at one message per 48 bytes: about what a
	// generated trace spends on one, its msg line and its phase reference.
	if l, ok := r.(interface{ Len() int }); ok {
		p.Messages = make([]model.Message, 0, l.Len()/48)
	}
	var fieldBuf [16][]byte
	fields := fieldBuf[:0]
	lineno := 0
	sawHeader := false
	for sc.Scan() {
		lineno++
		fields = splitFields(fields[:0], sc.Bytes())
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		if !sawHeader {
			if len(fields) != 2 || string(fields[0]) != "noctrace" || string(fields[1]) != "v1" {
				return nil, fmt.Errorf("line %d: expected header \"noctrace v1\", got %q", lineno, bytes.TrimSpace(sc.Bytes()))
			}
			sawHeader = true
			continue
		}
		switch string(fields[0]) {
		case "name":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: name takes one argument", lineno)
			}
			p.Name = string(fields[1])
		case "procs":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: procs takes one argument", lineno)
			}
			n, err := atoi(fields[1])
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
			if m.ID, err = atoi(fields[1]); err != nil {
				return nil, fmt.Errorf("line %d: bad msg id: %v", lineno, err)
			}
			if m.Src, err = atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("line %d: bad src: %v", lineno, err)
			}
			if m.Dst, err = atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("line %d: bad dst: %v", lineno, err)
			}
			if m.Start, err = strconv.ParseFloat(string(fields[4]), 64); err != nil {
				return nil, fmt.Errorf("line %d: bad start: %v", lineno, err)
			}
			if m.Finish, err = strconv.ParseFloat(string(fields[5]), 64); err != nil {
				return nil, fmt.Errorf("line %d: bad finish: %v", lineno, err)
			}
			if m.Bytes, err = atoi(fields[6]); err != nil {
				return nil, fmt.Errorf("line %d: bad bytes: %v", lineno, err)
			}
			p.Messages = append(p.Messages, m)
		case "phase":
			if len(fields) < 5 {
				return nil, fmt.Errorf("line %d: phase takes at least 4 arguments", lineno)
			}
			var ph model.Phase
			if string(fields[1]) != "-" {
				ph.Label = string(fields[1])
			}
			var err error
			if ph.Start, err = strconv.ParseFloat(string(fields[2]), 64); err != nil {
				return nil, fmt.Errorf("line %d: bad phase start: %v", lineno, err)
			}
			if ph.Finish, err = strconv.ParseFloat(string(fields[3]), 64); err != nil {
				return nil, fmt.Errorf("line %d: bad phase finish: %v", lineno, err)
			}
			if ph.ComputeAfter, err = strconv.ParseFloat(string(fields[4]), 64); err != nil {
				return nil, fmt.Errorf("line %d: bad compute gap: %v", lineno, err)
			}
			if refs := fields[5:]; len(refs) > 0 {
				ph.Messages = make([]int, len(refs))
				for i, f := range refs {
					if ph.Messages[i], err = atoi(f); err != nil {
						return nil, fmt.Errorf("line %d: bad message ref %q: %v", lineno, f, err)
					}
				}
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
	if len(p.Messages) == 0 {
		p.Messages = nil // as appending would have left it
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// splitFields appends line's fields to dst as strings.Fields would split
// them, sharing line's bytes. An ASCII line splits on the six ASCII spaces
// unicode.IsSpace names; a line with any other byte goes to bytes.Fields,
// which splits on Unicode spaces and reads invalid UTF-8 as strings.Fields
// does.
func splitFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i, c := range line {
		if c >= utf8.RuneSelf {
			return append(dst[:0], bytes.Fields(line)...)
		}
		if asciiSpace[c] {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as space.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// maxFastDigits is the most decimal digits that cannot overflow an int.
const maxFastDigits = strconv.IntSize/64*9 + 9

// atoi is strconv.Atoi on a field. The plain decimal integers Encode writes
// (an optional '-', then at most maxFastDigits digits) are parsed in place;
// anything else — a '+', an empty field, an overflow, a syntax error — goes
// to strconv.Atoi, so the value and the error text are its own.
func atoi(f []byte) (int, error) {
	digits := f
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > maxFastDigits {
		return strconv.Atoi(string(f))
	}
	n := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return strconv.Atoi(string(f))
		}
		n = n*10 + int(c-'0')
	}
	if len(digits) < len(f) {
		n = -n
	}
	return n, nil
}
