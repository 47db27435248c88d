package hier

import (
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// wideSpec is sixteen 65,536-processor groups in 217 bytes: per list it is
// within maxSpecProcs, as a whole spec it expands to 1,048,576 entries.
const wideSpec = "0-65535;65536-131071;131072-196607;196608-262143;262144-327679;327680-393215;393216-458751;458752-524287;" +
	"524288-589823;589824-655359;655360-720895;720896-786431;786432-851967;851968-917503;917504-983039;983040-1048575"

func TestParseSpecForms(t *testing.T) {
	cases := []struct {
		in        string
		mode      PartitionMode
		k         int
		canonical string
	}{
		{"4", ModeFlow, 4, "flow:4"},
		{" 4 ", ModeFlow, 4, "flow:4"},
		{"flow:8", ModeFlow, 8, "flow:8"},
		{"blocks:2", ModeBlocks, 2, "blocks:2"},
		{"1", ModeFlow, 1, "flow:1"},
	}
	for _, tc := range cases {
		sp, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if sp.Mode != tc.mode || sp.K != tc.k {
			t.Errorf("ParseSpec(%q) = mode %v k %d, want %v %d", tc.in, sp.Mode, sp.K, tc.mode, tc.k)
		}
		if got := sp.Canonical(); got != tc.canonical {
			t.Errorf("ParseSpec(%q).Canonical() = %q, want %q", tc.in, got, tc.canonical)
		}
	}
}

// TestParseSpecRangeAtMaxInt parses groups that end at the largest int,
// whose expansion once wrapped around and appended forever.
func TestParseSpecRangeAtMaxInt(t *testing.T) {
	max := strconv.Itoa(math.MaxInt)
	sp, err := ParseSpec("0;" + strconv.Itoa(math.MaxInt-2) + "-" + max)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Groups) != 2 || len(sp.Groups[0]) != 1 || len(sp.Groups[1]) != 3 || sp.Groups[1][2] != math.MaxInt {
		t.Errorf("groups %v", sp.Groups)
	}
}

func TestParseSpecExplicit(t *testing.T) {
	sp, err := ParseSpec("0-3;4-7@4,7;9,8,10-11")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Mode != ModeExplicit {
		t.Fatalf("mode %v, want explicit", sp.Mode)
	}
	wantGroups := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}
	if len(sp.Groups) != len(wantGroups) {
		t.Fatalf("got %d groups, want %d", len(sp.Groups), len(wantGroups))
	}
	for i, want := range wantGroups {
		if len(sp.Groups[i]) != len(want) {
			t.Fatalf("group %d = %v, want %v", i, sp.Groups[i], want)
		}
		for j, p := range want {
			if sp.Groups[i][j] != p {
				t.Errorf("group %d = %v, want %v", i, sp.Groups[i], want)
				break
			}
		}
	}
	if g := sp.GroupGateways[1]; len(g) != 2 || g[0] != 4 || g[1] != 7 {
		t.Errorf("group 1 gateways = %v, want [4 7]", g)
	}
	if sp.GroupGateways[0] != nil || sp.GroupGateways[2] != nil {
		t.Errorf("groups without @ should have nil gateways: %v", sp.GroupGateways)
	}
	// Canonical form collapses runs into ranges and sorts members.
	if got, want := sp.Canonical(), "0-3;4-7@4,7;8-11"; got != want {
		t.Errorf("Canonical() = %q, want %q", got, want)
	}
	// Equivalent spellings share a canonical form.
	sp2, err := ParseSpec("3,2,1,0;7,6,5,4@7,4;8-9,10,11")
	if err != nil {
		t.Fatal(err)
	}
	if sp2.Canonical() != sp.Canonical() {
		t.Errorf("equivalent specs canonicalize differently: %q vs %q", sp2.Canonical(), sp.Canonical())
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"  ",
		"0",
		"-1",
		"flow:0",
		"blocks:-2",
		"flow:x",
		"banana",
		"blocks:",
		"0-3;3-7",   // overlap
		"0-3;;8-11", // empty group
		"0-3@5",     // gateway outside group
		"0-3@",      // empty gateway list
		"3-0",       // inverted range
		"0-99999999999",
		"1,,2",
		"a-b",
		"0-999999999",
	} {
		_, err := ParseSpec(in)
		if err == nil {
			t.Errorf("ParseSpec(%q): expected error", in)
			continue
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("ParseSpec(%q): error %T is not *SpecError: %v", in, err, err)
		}
	}
}

func TestCanonicalSingletonAndPairRuns(t *testing.T) {
	sp, err := ParseSpec("0,2,4-5;1,3")
	if err != nil {
		t.Fatal(err)
	}
	// A two-element run stays a list (0-1 style ranges only pay off at 3+).
	if got, want := sp.Canonical(), "0,2,4,5;1,3"; got != want {
		t.Errorf("Canonical() = %q, want %q", got, want)
	}
}

// TestParseSpecGroupOrder: ParseSpec orders groups by smallest member and
// carries their gateways along, so group order is a spelling, not a key.
func TestParseSpecGroupOrder(t *testing.T) {
	a, err := ParseSpec("4-7@7;0-3")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("0-3;4-7@7")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("specs differ: %+v and %+v", a, b)
	}
	if got, want := a.Canonical(), "0-3;4-7@7"; got != want || b.Canonical() != want {
		t.Errorf("Canonical() = %q and %q, want %q", got, b.Canonical(), want)
	}
	// Errors still number the groups as written.
	_, err = ParseSpec("4-7@3;0-3")
	if err == nil || !strings.Contains(err.Error(), "gateway 3 is not a member of group 0") {
		t.Errorf("error = %v, want gateway 3 outside group 0", err)
	}
}

// TestParseSpecBudget: one budget of maxSpecProcs entries covers every list
// an explicit spec expands, members and gateways together, and is charged
// before a range expands.
func TestParseSpecBudget(t *testing.T) {
	if len(wideSpec) != 217 {
		t.Fatalf("wideSpec is %d bytes", len(wideSpec))
	}
	for _, in := range []string{wideSpec, "0-65535@0-65535", "0-65535;65536"} {
		_, err := ParseSpec(in)
		var se *SpecError
		if !errors.As(err, &se) || !strings.Contains(se.Reason, strconv.Itoa(maxSpecProcs)) {
			t.Errorf("ParseSpec(%.40q) = %v, want a *SpecError naming the limit %d", in, err, maxSpecProcs)
		}
	}
	for _, in := range []string{"0-65535", "0-65534@0", "0-32767@0-32767"} {
		if _, err := ParseSpec(in); err != nil {
			t.Errorf("ParseSpec(%q): %v", in, err)
		}
	}
}
