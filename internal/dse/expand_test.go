package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mpsockit/internal/platform"
)

// referenceHash is HashPoints' oracle: the schema line, then every
// point as json.Marshal writes it, one line each, with no fragment
// reuse. A point json.Marshal refuses adds nothing.
func referenceHash(points []Point) string {
	h := sha256.New()
	fmt.Fprintf(h, "dse-schema-%d\n", SchemaVersion)
	for _, p := range points {
		if data, err := json.Marshal(p); err == nil {
			h.Write(append(data, '\n'))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// richSpec crosses every field group an expanded point can carry:
// custom core mixes (one with a clock override), multi apps, bank and
// bw memory, and cal:K probes beside pipe and vp points.
const richSpec = "plat=2xrisc+1xdsp,1xctrl+2xdsp@3200,homog2;mem=ideal,bank:4x2,bw:8;" +
	"wl=jpeg,multi:jpeg+synth4,jobs4;heur=list,anneal;fid=mvp,cal:2,pipe4,vp64"

// TestHashPointsMatchesReference: HashPoints, which reuses the previous
// point's platform and workload bytes, hashes exactly the reference
// encoding — on an expansion, and on reorderings of it in which equal
// platforms and workloads are no longer adjacent, with a point that
// does not encode mixed in.
func TestHashPointsMatchesReference(t *testing.T) {
	points := expandSweep(t, richSpec, 3)
	if HashPoints(points) != referenceHash(points) {
		t.Fatal("expansion: fragment hash differs from the reference")
	}
	// Stride through the list: each platform and workload recurs with
	// others in between.
	var strided []Point
	for start := 0; start < 7; start++ {
		for i := start; i < len(points); i += 7 {
			strided = append(strided, points[i])
		}
	}
	var reversed []Point
	for i := len(points) - 1; i >= 0; i-- {
		reversed = append(reversed, points[i])
	}
	unnamed := points[0]
	unnamed.Plat.Mix = []platform.MixGroup{{N: 1, Class: platform.PEClass(-1), MHz: 100}}
	mixed := append([]Point{points[0], unnamed, points[0], points[len(points)-1]}, strided[:40]...)
	for name, list := range map[string][]Point{"strided": strided, "reversed": reversed, "unnamed": mixed} {
		if got, want := HashPoints(list), referenceHash(list); got != want {
			t.Errorf("%s: HashPoints %s, reference %s", name, got, want)
		}
	}
	var platRepeats, wlRepeats int
	for i := 1; i < len(strided); i++ {
		for j := 0; j < i-1; j++ {
			if strided[j].Plat.Equal(strided[i].Plat) && !strided[i-1].Plat.Equal(strided[i].Plat) {
				platRepeats++
			}
			if sameWorkload(&strided[j], &strided[i]) && !sameWorkload(&strided[i-1], &strided[i]) {
				wlRepeats++
			}
		}
	}
	if platRepeats == 0 || wlRepeats == 0 {
		t.Fatalf("strided list repeats no platform (%d) or workload (%d) after a different one", platRepeats, wlRepeats)
	}
}

// hashCase is a random point list for TestHashPointsRandom: every
// field random, as TestCodecMatchesMarshal fills them, and about half
// the points copy the platform or the workload fields of an earlier
// point, adjacent or not, a third of those then redrawing one field.
type hashCase struct{ Points []Point }

// Generate implements quick.Generator.
func (hashCase) Generate(r *rand.Rand, _ int) reflect.Value {
	points := make([]Point, 1+r.Intn(12))
	for i := range points {
		p := &points[i]
		fill(r, reflect.ValueOf(p).Elem())
		if i == 0 {
			continue
		}
		if r.Intn(2) == 0 {
			p.Plat = points[r.Intn(i)].Plat
			if r.Intn(3) == 0 {
				plat := reflect.ValueOf(&p.Plat).Elem()
				fill(r, plat.Field(r.Intn(plat.NumField())))
			}
		}
		if r.Intn(2) == 0 {
			o := &points[r.Intn(i)]
			p.Workload, p.N, p.WorkloadSeed, p.Apps = o.Workload, o.N, o.WorkloadSeed, o.Apps
			if r.Intn(3) == 0 {
				fill(r, reflect.ValueOf(p).Elem().FieldByName([]string{"Workload", "N", "WorkloadSeed", "Apps"}[r.Intn(4)]))
			}
		}
	}
	return reflect.ValueOf(hashCase{points})
}

// TestHashPointsRandom: on random point lists — strings that need
// escaping, unnamed PE classes, nil and empty slices, repeated
// fragments — HashPoints equals the reference hash.
func TestHashPointsRandom(t *testing.T) {
	check := func(c hashCase) bool {
		if got, want := HashPoints(c.Points), referenceHash(c.Points); got != want {
			t.Logf("%d points: HashPoints %s, reference %s", len(c.Points), got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(35))}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiAppsShared: the points of one multi workload share one Apps
// slice, and an append to one point's Apps copies instead of writing
// into a sibling's.
func TestMultiAppsShared(t *testing.T) {
	points := expandSweep(t, "plat=homog2,homog4;wl=multi:jpeg+synth4;heur=list,anneal", 5)
	if len(points) != 4 {
		t.Fatalf("expanded %d points, want 4", len(points))
	}
	want := append([]AppRef(nil), points[1].Apps...)
	if &points[0].Apps[0] != &points[1].Apps[0] {
		t.Fatal("multi points do not share their Apps slice")
	}
	points[0].Apps = append(points[0].Apps, AppRef{Kind: "carradio", Seed: 1})
	if len(points[0].Apps) != 3 {
		t.Fatalf("append: %d apps, want 3", len(points[0].Apps))
	}
	for i := 1; i < len(points); i++ {
		if !exactEqual(points[i].Apps, want) || cap(points[i].Apps) != len(want) {
			t.Fatalf("point %d's Apps %v (cap %d) changed by a sibling's append; want %v", i, points[i].Apps, cap(points[i].Apps), want)
		}
	}
}

// TestParseSweepRefusesRepeatedToken: a token repeated within one
// dimension, compared in canonical form and across repeated keys, is
// an error naming the dimension and the token; equal tokens in
// different dimensions and distinct tokens are not.
func TestParseSweepRefusesRepeatedToken(t *testing.T) {
	for _, c := range []struct{ spec, dim, tok string }{
		{"plat=homog2,homog2", "plat", "homog2"},
		{"plat=homog2;plat=homog02", "plat", "homog02"},
		{"plat=2xrisc@1000,2xRISC", "plat", "2xRISC"},
		{"dvfs=1,1", "dvfs", "1"},
		{"dvfs=1,01", "dvfs", "01"},
		{"mem=ideal,ideal", "mem", "ideal"},
		{"mem=bank:4x2,bank:04x2", "mem", "bank:04x2"},
		{"wl=synth8,synth08", "wl", "synth08"},
		{"wl=multi:jpeg+synth4,multi:jpeg+synth04", "wl", "multi:jpeg+synth04"},
		{"fab=mesh,bus,mesh", "fab", "mesh"},
		{"heur=list,anneal,list", "heur", "list"},
		{"fid=vp64,pipe8,vp064", "fid", "vp064"},
		{"fid=cal:2,cal:02", "fid", "cal:02"},
	} {
		_, err := ParseSweep(c.spec, 1)
		if err == nil || !strings.Contains(err.Error(), "dimension "+c.dim) || !strings.Contains(err.Error(), fmt.Sprintf("%q", c.tok)) {
			t.Errorf("ParseSweep(%q) = %v; want an error naming dimension %s and token %q", c.spec, err, c.dim, c.tok)
		}
	}
	for _, ok := range []string{
		"plat=homog2,homog4,2xrisc,2xrisc@600;dvfs=0,1;mem=ideal,bank:4x2,bank:2x4,bw:8",
		"wl=synth8,multi:synth8+jpeg,multi:jpeg+synth8;fid=vp64,vp32,pipe8,cal:2",
		"plat=homog2;fab=mesh;heur=list;fid=mvp",
	} {
		if _, err := ParseSweep(ok, 1); err != nil {
			t.Errorf("ParseSweep(%q): %v", ok, err)
		}
	}
}
