package hier

import (
	"errors"
	"math"
	"strconv"
	"testing"
)

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
