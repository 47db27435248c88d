package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/hier"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/synth"
	"repro/internal/trace"
)

// renderCase is a request resolved on a fresh server, with what its
// response was rendered from: the response without its design, and the
// design both as renderResponse writes it and as the oracle saves it. The
// design is synthesized again outright from the request's plan, its
// pattern summary derived again, and the rest of the response decoded from
// the resolved Row.
type renderCase struct {
	ent    itemResult
	resp   DesignResponse
	render func(*synth.Appender)
	save   func(io.Writer) error
}

func newRenderCase(tb testing.TB, body string) renderCase {
	tb.Helper()
	srv := newTestServer(tb, quickConfig())
	rc := renderCase{ent: srv.resolve(context.Background(), []byte(body), false)}
	if rc.ent.status != http.StatusOK {
		tb.Fatalf("%.80s: status %d (%s)", body, rc.ent.status, rc.ent.errMsg)
	}
	plan, err := srv.planRequest([]byte(body))
	if err != nil {
		tb.Fatal(err)
	}
	pat, err := srv.buildPattern(plan)
	if err != nil {
		tb.Fatal(err)
	}
	if plan.hier == nil {
		r, err := synth.Synthesize(pat, plan.opt)
		if err != nil {
			tb.Fatal(err)
		}
		rc.render = func(a *synth.Appender) { a.Design(r.Net, r.Table) }
		rc.save = func(w io.Writer) error { return synth.SaveDesign(w, r.Net, r.Table) }
	} else {
		d, err := hier.Synthesize(pat, plan.hierOptions(plan.opt))
		if err != nil {
			tb.Fatal(err)
		}
		rc.render = func(a *synth.Appender) { hier.AppendDesign(a, d) }
		rc.save = func(w io.Writer) error { return hier.SaveDesign(w, d) }
	}
	if err := json.Unmarshal(rc.ent.row, &rc.resp); err != nil {
		tb.Fatal(err)
	}
	// The pattern summary decodes as a map; the server sets the struct.
	periods := model.ContentionPeriods(pat)
	rc.resp.Design, rc.resp.Report.Pattern = nil, trace.SummarizeCliques(pat, periods, model.MaxCliques(periods))
	return rc
}

// ring64Body and hierCG16Body are the largest flat response of the serve
// tests and a hier one: the renders of the request gate.
const (
	ring64Body   = `{"benchmark":"ring-allreduce","procs":64}`
	hierCG16Body = `{"benchmark":"CG","procs":16,"hier":{"clusters":"4"}}`
)

// TestRenderRing64Allocs holds rendering the ring-allreduce/64 response,
// both of its forms from the synthesized design, to an allocation ceiling.
// The render before renderResponse (SaveDesign into a buffer through
// json.Encoder, then json.Marshal and json.Indent of the whole response)
// made 173 allocations and 139 KB; renderResponse made 46 and 27 KB when
// this was written.
func TestRenderRing64Allocs(t *testing.T) {
	rc := newRenderCase(t, ring64Body)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := renderResponse(&rc.resp, rc.render); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 60
	if allocs > ceiling {
		t.Errorf("rendering the ring-allreduce/64 response allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

// benchmarkRender renders the ring-allreduce/64 and the CG/16 at four
// clusters responses, through renderResponse or through the oracle.
func benchmarkRender(b *testing.B, marshal bool) {
	cases := []renderCase{newRenderCase(b, ring64Body), newRenderCase(b, hierCG16Body)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rc := range cases {
			var err error
			if marshal {
				_, _, err = renderResponseMarshal(rc.resp, rc.save)
			} else {
				_, _, err = renderResponse(&rc.resp, rc.render)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRenderResponses and its Marshal oracle are the render pair of
// the request gate (make bench-request).
func BenchmarkRenderResponses(b *testing.B)        { benchmarkRender(b, false) }
func BenchmarkRenderResponsesMarshal(b *testing.B) { benchmarkRender(b, true) }

// TestRenderMatchesMarshal holds the stored forms of a response, Row and
// Body, to the encoding/json render they replaced (renderResponseMarshal)
// byte for byte. Each request runs end to end on a fresh server: the serve
// digest cases, flat and hier, and an inline trace named with HTML's three
// characters, a quote and a byte of invalid UTF-8, flat and hier, each
// against the oracle's render of its renderCase. A design named with U+2028
// too, which a trace's name line cannot carry (it splits the line's
// fields), is rendered directly.
func TestRenderMatchesMarshal(t *testing.T) {
	odd := "noctrace v1\nname <&>\"\xff\nprocs 4\n" +
		"msg 0 0 1 0 1 64\nmsg 1 1 2 0 1 64\nmsg 2 2 3 0 1 64\nmsg 3 3 0 2 3 64\nmsg 4 0 2 2 3 64\n"
	oddTrace, err := json.Marshal(odd)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"benchmark":"CG","procs":16}`,
		jitterRequest(t),
		ring64Body,
		`{"benchmark":"CG","procs":16,"max_degree":6,"hier":{"clusters":"blocks:4"}}`,
		`{"benchmark":"CG","procs":16,"max_degree":6,"hier":{"clusters":"blocks:4","noi_max_degree":4,"noi_max_procs":2}}`,
		`{"trace":` + string(oddTrace) + `}`,
		`{"trace":` + string(oddTrace) + `,"hier":{"clusters":"2"}}`,
	} {
		rc := newRenderCase(t, body)
		row, full, err := renderResponseMarshal(rc.resp, rc.save)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rc.ent.row, row) {
			t.Errorf("%.80s: Row differs from encoding/json's:\n%s\nwant\n%s", body, rc.ent.row, row)
		}
		if !bytes.Equal(rc.ent.body, full) {
			t.Errorf("%.80s: Body differs from encoding/json's:\n%s\nwant\n%s", body, rc.ent.body, full)
		}
	}

	p := nas.Figure1Pattern()
	p.Name = "<&>\"\u2028\xff"
	r, err := synth.Synthesize(p, synth.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp := DesignResponse{Schema: ResponseSchema, Version: ResponseVersion, Name: r.Net.Name, Stats: r.Stats}
	row, full, err := renderResponse(&resp, func(a *synth.Appender) { a.Design(r.Net, r.Table) })
	if err != nil {
		t.Fatal(err)
	}
	wantRow, wantFull, err := renderResponseMarshal(resp, func(w io.Writer) error { return synth.SaveDesign(w, r.Net, r.Table) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(row, wantRow) || !bytes.Equal(full, wantFull) {
		t.Errorf("a design named %q renders\n%s\n%s\nwant\n%s\n%s", p.Name, row, full, wantRow, wantFull)
	}
}
