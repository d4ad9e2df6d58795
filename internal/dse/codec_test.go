package dse

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mpsockit/internal/platform"
)

// codecCase is a random Result for TestCodecMatchesMarshal. Generate
// walks the Result type by reflection and fills every field, so a
// field added to Point or Metrics but not to the codec shows up as a
// byte mismatch.
type codecCase struct{ R Result }

// codecTokens are the strings a field mostly draws from: sweep tokens
// and the empty string (an omitted omitempty field).
var codecTokens = []string{
	"", "", "homog", "custom", "mesh", "bus", "bank:4x2", "multi:jpeg+carradio",
	"list", "anneal", "-", "mvp", "pipe", "rtos", "jobs", "synth", "\x7f del",
	"exhaustive search: 13 tasks on 8 cores exceed the space limit",
}

// codecSpecials are the rest: every class of string the encoder hands
// to json.Marshal — HTML characters, U+2028 and U+2029, control
// characters, quotes, backslashes, non-ASCII text and invalid UTF-8.
var codecSpecials = []string{
	"a<b", "b>a", "R&D", "line\u2028sep", "para\u2029sep", "tab\there", "new\nline", "\x01\x1f",
	`quote "`, `back \ slash`, "façade → ✓", "bad \xff\xfe utf-8",
}

// codecString draws a string, one in twelve of them special.
func codecString(r *rand.Rand) string {
	if r.Intn(12) == 0 {
		return codecSpecials[r.Intn(len(codecSpecials))]
	}
	return codecTokens[r.Intn(len(codecTokens))]
}

// codecFloat draws a float64: sweep-like magnitudes, both sides of
// encoding/json's exponent cut-offs at 1e-6 and 1e21, exact zeros of
// either sign, extremes, and (rarely) NaN and ±Inf.
func codecFloat(r *rand.Rand) float64 {
	sign := float64(1 - 2*r.Intn(2))
	switch r.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return sign * 1e-6 * (1 + (r.Float64()-0.5)*1e-9)
	case 3:
		return sign * math.Nextafter(1e-6, 0)
	case 4:
		return sign * 1e21 * (1 + (r.Float64()-0.5)*1e-9)
	case 5:
		return sign * math.Nextafter(1e21, 0)
	case 6:
		return sign * math.Exp(r.NormFloat64()*60)
	case 7:
		return sign * math.SmallestNonzeroFloat64 * float64(1+r.Intn(1000))
	case 8:
		return sign * math.MaxFloat64 * r.Float64()
	case 9:
		return float64(r.Int63n(1 << 53))
	case 10:
		switch r.Intn(12) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(int(sign))
		}
	}
	return r.Float64() * math.Pow(10, float64(r.Intn(24)-8))
}

// codecInt draws an int64: zero (an omitted omitempty field), small
// values of either sign, the extremes and anything in between.
func codecInt(r *rand.Rand) int64 {
	switch r.Intn(6) {
	case 0:
		return 0
	case 1:
		return int64(r.Intn(100))
	case 2:
		return -1 - r.Int63n(100)
	case 3:
		return math.MinInt64
	case 4:
		return math.MaxInt64
	}
	return int64(r.Uint64())
}

// codecUint draws a uint64 the same way.
func codecUint(r *rand.Rand) uint64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return uint64(r.Intn(100))
	case 2:
		return math.MaxUint64
	}
	return r.Uint64()
}

// fill gives v a random value, recursively.
func fill(r *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(r, v.Field(i))
		}
	case reflect.Slice:
		switch n := r.Intn(5); n {
		case 0: // nil: omitted
		case 1: // empty: omitted too
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			s := reflect.MakeSlice(v.Type(), n-1, n-1)
			for i := 0; i < s.Len(); i++ {
				fill(r, s.Index(i))
			}
			v.Set(s)
		}
	case reflect.String:
		v.SetString(codecString(r))
	case reflect.Float64:
		v.SetFloat(codecFloat(r))
	case reflect.Int, reflect.Int64:
		if v.Type() == reflect.TypeOf(platform.PEClass(0)) {
			v.SetInt(int64(r.Intn(5)) - int64(r.Intn(40)/39) + int64(r.Intn(40)/39)) // -1 and 5 have no name
			return
		}
		if n := codecInt(r); !v.OverflowInt(n) {
			v.SetInt(n)
		}
	case reflect.Uint64:
		v.SetUint(codecUint(r))
	default:
		panic("codec test: no generator for " + v.Type().String())
	}
}

// Generate implements quick.Generator.
func (codecCase) Generate(r *rand.Rand, _ int) reflect.Value {
	var c codecCase
	fill(r, reflect.ValueOf(&c.R).Elem())
	return reflect.ValueOf(c)
}

// sameErr reports whether two errors are both nil or carry equal text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestCodecMatchesMarshal: for random Results with every field
// populated, the codec writes json.Marshal's bytes and error for a
// Result and for its Point; every line it writes decodes on the fast
// path unless json.Marshal escaped a string in it, and decodes to
// json.Unmarshal's value.
func TestCodecMatchesMarshal(t *testing.T) {
	var lines, fallbacks, escaped, failed, exp int
	check := func(c codecCase) bool {
		want, werr := json.Marshal(c.R)
		got, gerr := appendResult([]byte("prefix"), &c.R)
		if !bytes.Equal(got, append([]byte("prefix"), want...)) || !sameErr(gerr, werr) {
			t.Logf("Result %+v:\ncodec %s (%v)\njson  %s (%v)", c.R, got, gerr, want, werr)
			return false
		}
		wantP, werrP := json.Marshal(c.R.Point)
		gotP, gerrP := appendPoint(nil, &c.R.Point)
		if !bytes.Equal(gotP, wantP) || !sameErr(gerrP, werrP) {
			t.Logf("Point %+v:\ncodec %s (%v)\njson  %s (%v)", c.R.Point, gotP, gerrP, wantP, werrP)
			return false
		}
		if werr != nil {
			failed++
			return true
		}
		lines++
		if bytes.Contains(want, []byte("e-")) || bytes.Contains(want, []byte("e+")) {
			exp++
		}
		hasEscape := bytes.IndexByte(want, '\\') >= 0
		if hasEscape {
			escaped++
		}
		fast, ok := decodeResult(want)
		if ok == hasEscape {
			t.Logf("line %s: fast path took it = %v", want, ok)
			return false
		}
		if !ok {
			fallbacks++
		}
		var oracle Result
		if err := json.Unmarshal(want, &oracle); err != nil {
			t.Logf("line %s does not unmarshal: %v", want, err)
			return false
		}
		dec, err := DecodeResult(want)
		if err != nil || !reflect.DeepEqual(dec, oracle) || (ok && !reflect.DeepEqual(fast, oracle)) {
			t.Logf("line %s:\ndecoded %+v (%v)\njson    %+v", want, dec, err, oracle)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(24))}
	if testing.Short() {
		cfg.MaxCount = 600
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d lines (%d escaped, %d with exponents), %d unencodable", lines, escaped, exp, failed)
	if lines-escaped == 0 || escaped == 0 || exp == 0 || failed == 0 || fallbacks != escaped {
		t.Fatalf("vacuous: %d lines, %d escaped, %d with exponents, %d unencodable", lines, escaped, exp, failed)
	}
}

// codecSeedLine is a canonical result line with every optional member
// present: mix, apps, cal probes and app makespans included.
const codecSeedLine = `{"point":{"id":7,"seed":18446744073709551615,"plat":{"kind":"custom","cores":3,"mix":[{"n":2,"class":"RISC","mhz":1000},{"n":1,"class":"DSP","mhz":600}],"fabric":"mesh","dvfs":1,"mem":"bank:4x2"},"wl":"multi:jpeg+synth8","n":4,"wl_seed":7670134957468886550,"apps":[{"kind":"jpeg","seed":935489893991805397},{"kind":"synth","n":8,"seed":1}],"heur":"anneal","fid":"cal","iters":8,"quantum":64,"cal_probes":[{"heur":"list","seed":6595548577905121074}]},"metrics":{"makespan_ps":2115434000,"throughput_hz":472.71623695185014,"busy_ps":-3,"util_mean":0.5561166172047911,"util_max":1e-7,"energy":1.5e+21,"area":4.120000000000001,"noc_transfers":6,"noc_wait_ps":0,"mem_transfers":2,"mem_wait_ps":9,"freq_switches":1,"sim_events":48,"vp_instr":5,"miss_rate":0.25,"worst_load_cps":186463636.36363634,"app_makespan_ps":[2115434000,742804000],"cal_scale":1.0021888953816578,"cal_rms":3770393.4529840206,"cal_samples":2},"err":"façade"}`

// FuzzDecodeResult: for any bytes, DecodeResult agrees with
// json.Unmarshal — an error exactly when json.Unmarshal fails, with
// its text, and otherwise a reflect.DeepEqual value. The seeds are the
// canonical line and the corners a layout-specific parser gets wrong:
// an empty array (a non-nil empty slice), a leading zero, duplicate
// and case-folded keys, null, whitespace, \u escapes, invalid UTF-8,
// -0, integer overflow and an out-of-range float.
func FuzzDecodeResult(f *testing.F) {
	for _, line := range []string{
		codecSeedLine,
		`{"point":{"id":0},"metrics":{}}`,
		`{"point":{"id":0,"apps":[]},"metrics":{"app_makespan_ps":[]}}`,
		`{"point":{"id":00}}`,
		`{"point":{"id":1,"id":2}}`,
		`{"point":{"id":1},"point":{"seed":2}}`,
		`{"Point":{"ID":3,"Seed":4},"METRICS":{"Energy":1}}`,
		`null`,
		`{"point":null,"metrics":{"app_makespan_ps":null}}`,
		`{ "point" : { "id" : 1 } }`,
		"{\"point\":{\"id\":1}}\n",
		`{"point":{"wl":"\u006apeg"},"err":"\u2028"}`,
		"{\"err\":\"\xff\"}",
		`{"point":{"id":-0,"seed":-0},"metrics":{"energy":-0}}`,
		`{"point":{"id":9223372036854775807,"seed":18446744073709551615}}`,
		`{"point":{"id":9223372036854775808}}`,
		`{"point":{"id":-9223372036854775809}}`,
		`{"point":{"seed":18446744073709551616}}`,
		`{"metrics":{"energy":1e400}}`,
		`{"metrics":{"energy":1e-400,"area":1E+2,"util_max":-0.0e0}}`,
		`{"point":{"id":1.0}}`,
		`{"point":{"plat":{"mix":[{"n":1,"class":"GPU","mhz":1}]}}}`,
		`{"point":{"plat":{"mix":[{"n":1,"class":"risc","mhz":1}]}}}`,
		`{"point":{"id":1}}x`,
		`{"point":{"id":1},}`,
		`{"unknown":1}`,
		`{"point":{"id":`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := DecodeResult(line)
		var want Result
		werr := json.Unmarshal(line, &want)
		if werr != nil {
			if err == nil || err.Error() != "dse: malformed result line: "+werr.Error() {
				t.Fatalf("%q: DecodeResult error %v, json.Unmarshal %v", line, err, werr)
			}
			return
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\nDecodeResult   %#v (%v)\njson.Unmarshal %#v", line, got, err, want)
		}
	})
}

// codecBenchLines returns the result lines of a small sweep shaped
// like a farm's: custom mixes, multi-app and jobs points, two
// task-level fidelities and a memory model.
func codecBenchLines(tb testing.TB) [][]byte {
	tb.Helper()
	points, _, err := Expand("plat=homog4,2xrisc+4xdsp;wl=jpeg,multi:jpeg+carradio,jobs8;fid=mvp,pipe4;mem=ideal,bank:4x2", 3)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range (&Engine{Workers: 1}).Run(points) {
		if err := WriteResult(&buf, r); err != nil {
			tb.Fatal(err)
		}
	}
	return bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
}

// BenchmarkWriteResult encodes one result line per op, cycling through
// a small sweep's results: /codec is WriteResult, /encoding_json the
// json.Marshal line it replaced, its oracle.
func BenchmarkWriteResult(b *testing.B) {
	var results []Result
	for _, line := range codecBenchLines(b) {
		r, err := DecodeResult(line)
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, r)
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteResult(io.Discard, results[i%len(results)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(results[i%len(results)])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Discard.Write(append(data, '\n')); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeResult decodes one result line per op, cycling
// through a small sweep's lines: /codec is DecodeResult, /encoding_json
// json.Unmarshal, its oracle.
func BenchmarkDecodeResult(b *testing.B) {
	lines := codecBenchLines(b)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := DecodeResult(lines[i%len(lines)])
			if err != nil {
				b.Fatal(err)
			}
			decodeSink = r
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Result
			if err := json.Unmarshal(lines[i%len(lines)], &r); err != nil {
				b.Fatal(err)
			}
			decodeSink = r
		}
	})
}

// decodeSink keeps BenchmarkDecodeResult's results live.
var decodeSink Result
