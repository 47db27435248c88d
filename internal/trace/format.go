package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
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

// maxLine bounds a line: one of maxLine bytes or more, its newline not
// counted, is bufio.ErrTooLong, as the 1 MiB bufio.Scanner the decoder once
// read through reported it.
const maxLine = 1 << 20

// readBufs pools Decode's read buffers, so a stream costs no copy of its
// own once the pool holds a buffer its size. Buffers above maxPooledRead
// are left to the collector.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledRead = 4 << 20

// Decode reads a noctrace v1 stream to its end and decodes it as
// DecodeBytes does. A read error is reported as a line scanner reports it,
// after the lines read before it: a malformed line among them is the error,
// else the read error.
func Decode(r io.Reader) (*model.Pattern, error) {
	buf := readBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledRead {
			readBufs.Put(buf)
		}
	}()
	_, err := buf.ReadFrom(r)
	return decode(buf.Bytes(), err)
}

// DecodeBytes parses a noctrace v1 document and validates the result.
//
// It parses each line in place, splits it into fields exactly as
// strings.Fields would after strings.TrimSpace, and parses numbers from the
// field bytes, so a line costs no allocation: only names, phase labels and
// phase reference lists are copied out, and the result holds no reference
// to data. Every input is accepted or rejected, with the same error text,
// as the string-per-line decoder it replaced (decodeFields in the tests).
func DecodeBytes(data []byte) (*model.Pattern, error) { return decode(data, nil) }

// decode is DecodeBytes of the bytes a stream yielded before readErr, nil
// at its end.
func decode(data []byte, readErr error) (*model.Pattern, error) {
	// The message slice is sized at one message per 48 bytes: about what a
	// generated trace spends on one, its msg line and its phase reference.
	p := &model.Pattern{Messages: make([]model.Message, 0, len(data)/48)}
	var fieldBuf [16][]byte
	fields := fieldBuf[:0]
	sawHeader := false
	for lineno := 1; len(data) > 0; lineno++ {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) >= maxLine {
			return nil, bufio.ErrTooLong
		}
		fields = splitFields(fields[:0], line)
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		if !sawHeader {
			if len(fields) != 2 || string(fields[0]) != "noctrace" || string(fields[1]) != "v1" {
				return nil, fmt.Errorf("line %d: expected header \"noctrace v1\", got %q", lineno, bytes.TrimSpace(line))
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
	if readErr != nil {
		return nil, readErr
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
