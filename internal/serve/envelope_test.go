package serve

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// decodeCases are bodies for every rule of the request envelope, each with
// whether decodeRequest accepts it. They seed FuzzDesignRequestDecode.
var decodeCases = []struct {
	body string
	ok   bool
}{
	{`{"benchmark":"CG","procs":16}`, true},
	// Keys fold as bytes.EqualFold does: ASCII case, and U+212A (Kelvin)
	// and U+017F (long s), escaped or not.
	{`{"Benchmark":"CG","PROCS":16,"Hier":{"CLUSTERS":"4"}}`, true},
	{`{"benchmar\u212a":"CG","procs":16}`, true},
	{"{\"benchmar\u212a\":\"CG\",\"max_proc\u017f\":2}", true},
	{`{"\u0062enchmark":"CG","procs":16}`, true},
	{`{"benchmarks":"CG"}`, false},
	{`{"":1}`, false},
	// The last of repeated keys wins; a repeated hier merges into the first,
	// and null sets it to nil.
	{`{"benchmark":"FFT","benchmark":"CG","procs":8,"procs":16}`, true},
	{`{"benchmark":"CG","procs":16,"hier":{"clusters":"4","max_gateways":1},"hier":{"max_gateways":2}}`, true},
	{`{"hier":{"clusters":"4"},"hier":null,"benchmark":"CG","procs":16}`, true},
	{`{"hier":null,"hier":{"clusters":"flow:4"},"benchmark":"CG","procs":16}`, true},
	{`{"hier":{},"hier":{"clusters":null}}`, true},
	{`{"benchmark":"CG","procs":16,"hier":{"clusters":"0;9223372036854775807"}}`, true},
	{`{"benchmark":"CG","procs":16,"hier":{"clusters":"4-7@7;0-3"}}`, true},
	{`{"benchmark":"CG","procs":16,"hier":{"clusters":"0-3;4-7@7"}}`, true},
	{`{"benchmark":"CG","procs":16,"hier":{"clusters":"` + wideSpec + `"}}`, true},
	{`{"benchmark":"CG","procs":16,"hier":{"clusters":"0-65535"}}`, true},
	{`{"benchmark":"CG","procs":16,"hier":{"clusters":"0-65535@0-65535"}}`, true},
	// Null leaves a field as it was.
	{`{"trace":"","benchmark":"CG","procs":16}`, true},
	{`{"benchmark":"CG","benchmark":null,"procs":16,"procs":null,"seed":null,"lane":null,"trace":null,"iterations":null}`, true},
	// Every escape, surrogate pairs, lone and unpaired surrogates, and
	// invalid UTF-8 (a lone continuation byte, an encoded surrogate).
	{`{"trace":"noctrace v1\nname \"q\" \\ \/ \b\f\r\t\u00e9\ud83d\ude00 é😀\nprocs 2\nmsg 0 1 0 1 8\n"}`, true},
	{`{"lane":"\ud800"}`, true},
	{`{"lane":"\udc00\ud800x"}`, true},
	{`{"lane":"\ud800\u0041\udbff\udfff"}`, true},
	{"{\"lane\":\"\xff\xfe a\xed\xa0\x80\"}", true},
	{"{\"benchmark\":\"\xc3\"}", true},
	{`{"lane":"a\\\"b\\"}`, true},
	{`{"lane":"\x"}`, false},
	{`{"lane":"\u12"}`, false},
	{`{"lane":"\u12g4"}`, false},
	{`{"lane":"\ud800\u12"}`, false},
	{"{\"lane\":\"a\nb\"}", false},
	{`{"lane":"abc`, false},
	{`{"lane":"abc\"}`, false},
	// Integers are strconv.ParseInt's: no fraction, no exponent, no
	// overflow, no leading zero; -0 is 0.
	{`{"procs":1.0}`, false},
	{`{"procs":1e2}`, false},
	{`{"procs":1E2}`, false},
	{`{"seed":9223372036854775808}`, false},
	{`{"seed":-9223372036854775808,"procs":-0}`, true},
	{`{"procs":01}`, false},
	{`{"procs":-}`, false},
	{`{"procs":"16"}`, false},
	{`{"procs":true}`, false},
	{`{"benchmark":1}`, false},
	{`{"benchmark":false}`, false},
	// A top-level null is the zero request; nothing but whitespace may
	// follow the object.
	{`null`, true},
	{" \t\r\nnull\n", true},
	{`nul`, false},
	{`null x`, false},
	{`null{}`, false},
	{"{\"benchmark\":\"CG\"}\n\t ", true},
	{`{"benchmark":"CG"} {}`, false},
	{`{"benchmark":"CG"}x`, false},
	{`{"benchmark":"CG"}"x"`, false},
	// Only an object decodes into a request, and only known fields.
	{`[]`, false},
	{`"x"`, false},
	{`5`, false},
	{`true`, false},
	{`{"bench":1}`, false},
	{`{"hier":{"clusterz":"4"}}`, false},
	{`{"hier":5}`, false},
	{`{"hier":[]}`, false},
	{`{"hier":"4"}`, false},
	// Syntax.
	{``, false},
	{`   `, false},
	{`{`, false},
	{`{}`, true},
	{`{"a"`, false},
	{`{"benchmark":"CG",}`, false},
	{`{,}`, false},
	{`{"benchmark" "CG"}`, false},
	{`{"benchmark":"CG" "procs":16}`, false},
	{`{benchmark:"CG"}`, false},
}

// TestDecodeRequestCases pins which of decodeCases decode, and checks each
// against the encoding/json oracle as FuzzDesignRequestDecode does.
func TestDecodeRequestCases(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	for _, c := range decodeCases {
		if _, _, err := decodeRequest([]byte(c.body)); (err == nil) != c.ok {
			t.Errorf("%q: error %v, want accepted %t", c.body, err, c.ok)
		}
		checkDecodeAgainstJSON(t, srv, []byte(c.body))
	}
}

// checkDecodeAgainstJSON requires decodeRequest and decodeRequestJSON to
// both accept raw or both reject it; an accepted body must decode to equal
// requests and plan to equal plans (or fail planning alike), and a rejected
// one must fail planRequest as a 400 that says it failed decoding.
func checkDecodeAgainstJSON(t *testing.T, srv *Server, raw []byte) {
	t.Helper()
	req, tr, err := decodeRequest(raw)
	want, werr := decodeRequestJSON(raw)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%q: decodeRequest error %v, encoding/json error %v", raw, err, werr)
	}
	if err != nil {
		_, perr := srv.planRequest(raw)
		var bad *badRequestError
		if !errors.As(perr, &bad) || !strings.HasPrefix(perr.Error(), "decoding request: ") {
			t.Fatalf("%q: planRequest error %v, want a 400 prefixed %q", raw, perr, "decoding request: ")
		}
		return
	}
	wantTrace := want.Trace
	want.Trace = ""
	if string(tr) != wantTrace || !reflect.DeepEqual(req, want) {
		t.Fatalf("%q: decoded %+v with trace %q, encoding/json %+v with trace %q", raw, req, tr, want, wantTrace)
	}
	got, gerr := srv.plan(&req, tr)
	exp, eerr := srv.plan(&want, []byte(wantTrace))
	if (gerr == nil) != (eerr == nil) || gerr != nil && gerr.Error() != eerr.Error() {
		t.Fatalf("%q: plan error %v, encoding/json's %v", raw, gerr, eerr)
	}
	if gerr != nil {
		return
	}
	if len(got.trace) == 0 && len(exp.trace) == 0 { // no trace, nil or empty
		got.trace, exp.trace = nil, nil
	}
	if !reflect.DeepEqual(got, exp) {
		t.Fatalf("%q: plan %+v, encoding/json's %+v", raw, got, exp)
	}
}

// FuzzDesignRequestDecode holds the one-pass envelope decoder to the
// encoding/json decode it replaced (decodeRequestJSON): on any body both
// accept or both reject, and an accepted body decodes to equal requests and
// equal plans.
func FuzzDesignRequestDecode(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	srv := newTestServer(f, quickConfig())
	f.Fuzz(func(t *testing.T, raw []byte) { checkDecodeAgainstJSON(t, srv, raw) })
}

// TestPlanJitterAllocs holds planning and keying the jitter body (the
// 110 KB inline trace of bench/'s warm_variants), its key memoised, to
// allocation ceilings. With the json.Decoder, which buffered the body
// again, copied the trace into a string and hashed it through a []byte
// copy, this made 29 allocations and 606 KB; the one-pass decoder, which
// unescapes the trace once, made 12 and 116 KB when this was written.
func TestPlanJitterAllocs(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	raw := []byte(jitterRequest(t))
	allocs, bytes := allocsPerRun(20, func() {
		plan, err := srv.planRequest(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := srv.requestKey(plan); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 16
	if allocs > ceiling {
		t.Errorf("planning and keying the jitter body allocates %.0f times, ceiling %d", allocs, ceiling)
	}
	if limit := 1.25 * float64(len(raw)); bytes > limit {
		t.Errorf("planning and keying the jitter body allocates %.0f bytes, ceiling %.0f (1.25 times the body)", bytes, limit)
	}
}

func benchmarkDecodeJitter(b *testing.B, plan func(srv *Server, raw []byte) (*designPlan, error)) {
	srv := newTestServer(b, quickConfig())
	raw := []byte(jitterRequest(b))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan(srv, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRequestJitter and its JSON oracle are the decode pair of
// the request gate (make bench-request): the jitter body planned through
// decodeRequest, and through decodeRequestJSON.
func BenchmarkDecodeRequestJitter(b *testing.B) {
	benchmarkDecodeJitter(b, (*Server).planRequest)
}

func BenchmarkDecodeRequestJitterJSON(b *testing.B) {
	benchmarkDecodeJitter(b, func(srv *Server, raw []byte) (*designPlan, error) {
		req, err := decodeRequestJSON(raw)
		if err != nil {
			return nil, err
		}
		return srv.plan(&req, []byte(req.Trace))
	})
}
