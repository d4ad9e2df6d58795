package dse

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"mpsockit/internal/platform"
)

// The result codec writes and reads sweep result lines without
// reflection. It knows exactly one layout: the one json.Marshal writes
// for Result, Point and Metrics — fields in declaration order, omitempty
// fields left out when zero, no whitespace. encoding/json stays the
// general fallback: the encoder hands it every value it cannot write
// byte for byte (a string that needs escaping, a NaN or ±Inf, a PE
// class without a name), and the decoder hands it every line that is
// not in the canonical layout, so both sides mean exactly what
// encoding/json means. TestCodecMatchesMarshal and FuzzDecodeResult
// hold the equivalence.

// appendResult appends r's JSON encoding to b: the bytes and error
// json.Marshal(r) returns.
func appendResult(b []byte, r *Result) ([]byte, error) {
	if !r.Point.encodable() || !r.Metrics.encodable() {
		return appendMarshal(b, *r) // a copy, so r itself does not escape
	}
	b = append(b, `{"point":`...)
	b = appendPointJSON(b, &r.Point)
	b = append(b, `,"metrics":`...)
	b = appendMetricsJSON(b, &r.Metrics)
	if r.Err != "" {
		b = append(b, `,"err":`...)
		b = appendString(b, r.Err)
	}
	return append(b, '}'), nil
}

// appendPoint appends p's JSON encoding to b: the bytes and error
// json.Marshal(p) returns.
func appendPoint(b []byte, p *Point) ([]byte, error) {
	if !p.encodable() {
		return appendMarshal(b, *p)
	}
	return appendPointJSON(b, p), nil
}

// appendMarshal is the fallback: json.Marshal(v) appended to b. On an
// error nothing is appended.
func appendMarshal(b []byte, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	return append(b, data...), err
}

// encodable reports whether every PE class in p has a name; json.Marshal
// fails on one that does not.
func (p *Point) encodable() bool {
	for _, g := range p.Plat.Mix {
		if !g.Class.Named() {
			return false
		}
	}
	return true
}

// encodable reports whether every float in m is finite; json.Marshal
// fails on NaN and ±Inf.
func (m *Metrics) encodable() bool {
	for _, f := range [...]float64{m.ThroughputHz, m.UtilMean, m.UtilMax, m.Energy, m.Area,
		m.MissRate, m.WorstLoadCPS, m.CalScale, m.CalRMS} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return false
		}
	}
	return true
}

// appendPointJSON writes an encodable point.
func appendPointJSON(b []byte, p *Point) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(p.ID), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, p.Seed, 10)
	b = append(b, `,"plat":{"kind":`...)
	b = appendString(b, p.Plat.Kind)
	if p.Plat.Cores != 0 {
		b = append(b, `,"cores":`...)
		b = strconv.AppendInt(b, int64(p.Plat.Cores), 10)
	}
	if len(p.Plat.Mix) > 0 {
		b = append(b, `,"mix":`...)
		for i, g := range p.Plat.Mix {
			b = append(b, elemSep(i))
			b = append(b, `{"n":`...)
			b = strconv.AppendInt(b, int64(g.N), 10)
			b = append(b, `,"class":"`...)
			b = append(b, g.Class.String()...)
			b = append(b, `","mhz":`...)
			b = strconv.AppendInt(b, int64(g.MHz), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"fabric":`...)
	b = appendString(b, p.Plat.Fabric)
	b = append(b, `,"dvfs":`...)
	b = strconv.AppendInt(b, int64(p.Plat.DVFS), 10)
	if p.Plat.Mem != "" {
		b = append(b, `,"mem":`...)
		b = appendString(b, p.Plat.Mem)
	}
	b = append(b, `},"wl":`...)
	b = appendString(b, p.Workload)
	if p.N != 0 {
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(p.N), 10)
	}
	b = append(b, `,"wl_seed":`...)
	b = strconv.AppendUint(b, p.WorkloadSeed, 10)
	if len(p.Apps) > 0 {
		b = append(b, `,"apps":`...)
		for i, a := range p.Apps {
			b = append(b, elemSep(i))
			b = append(b, `{"kind":`...)
			b = appendString(b, a.Kind)
			if a.N != 0 {
				b = append(b, `,"n":`...)
				b = strconv.AppendInt(b, int64(a.N), 10)
			}
			b = append(b, `,"seed":`...)
			b = strconv.AppendUint(b, a.Seed, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"heur":`...)
	b = appendString(b, p.Heuristic)
	b = append(b, `,"fid":`...)
	b = appendString(b, p.Fidelity)
	if p.Iterations != 0 {
		b = append(b, `,"iters":`...)
		b = strconv.AppendInt(b, int64(p.Iterations), 10)
	}
	if p.Quantum != 0 {
		b = append(b, `,"quantum":`...)
		b = strconv.AppendInt(b, int64(p.Quantum), 10)
	}
	if len(p.CalProbes) > 0 {
		b = append(b, `,"cal_probes":`...)
		for i, c := range p.CalProbes {
			b = append(b, elemSep(i))
			b = append(b, `{"heur":`...)
			b = appendString(b, c.Heur)
			b = append(b, `,"seed":`...)
			b = strconv.AppendUint(b, c.Seed, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendMetricsJSON writes encodable metrics.
func appendMetricsJSON(b []byte, m *Metrics) []byte {
	b = append(b, `{"makespan_ps":`...)
	b = strconv.AppendInt(b, int64(m.Makespan), 10)
	b = append(b, `,"throughput_hz":`...)
	b = appendFloat(b, m.ThroughputHz)
	b = append(b, `,"busy_ps":`...)
	b = strconv.AppendInt(b, m.BusyPS, 10)
	b = append(b, `,"util_mean":`...)
	b = appendFloat(b, m.UtilMean)
	b = append(b, `,"util_max":`...)
	b = appendFloat(b, m.UtilMax)
	b = append(b, `,"energy":`...)
	b = appendFloat(b, m.Energy)
	b = append(b, `,"area":`...)
	b = appendFloat(b, m.Area)
	b = append(b, `,"noc_transfers":`...)
	b = strconv.AppendUint(b, m.NoCTransfers, 10)
	b = append(b, `,"noc_wait_ps":`...)
	b = strconv.AppendInt(b, m.NoCWaitPS, 10)
	if m.MemTransfers != 0 {
		b = append(b, `,"mem_transfers":`...)
		b = strconv.AppendUint(b, m.MemTransfers, 10)
	}
	if m.MemWaitPS != 0 {
		b = append(b, `,"mem_wait_ps":`...)
		b = strconv.AppendInt(b, m.MemWaitPS, 10)
	}
	if m.FreqSwitches != 0 {
		b = append(b, `,"freq_switches":`...)
		b = strconv.AppendUint(b, m.FreqSwitches, 10)
	}
	b = append(b, `,"sim_events":`...)
	b = strconv.AppendUint(b, m.SimEvents, 10)
	if m.VPInstr != 0 {
		b = append(b, `,"vp_instr":`...)
		b = strconv.AppendUint(b, m.VPInstr, 10)
	}
	if m.MissRate != 0 {
		b = append(b, `,"miss_rate":`...)
		b = appendFloat(b, m.MissRate)
	}
	if m.WorstLoadCPS != 0 {
		b = append(b, `,"worst_load_cps":`...)
		b = appendFloat(b, m.WorstLoadCPS)
	}
	if len(m.AppMakespanPS) > 0 {
		b = append(b, `,"app_makespan_ps":`...)
		for i, v := range m.AppMakespanPS {
			b = append(b, elemSep(i))
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, ']')
	}
	if m.CalScale != 0 {
		b = append(b, `,"cal_scale":`...)
		b = appendFloat(b, m.CalScale)
	}
	if m.CalRMS != 0 {
		b = append(b, `,"cal_rms":`...)
		b = appendFloat(b, m.CalRMS)
	}
	if m.CalSamples != 0 {
		b = append(b, `,"cal_samples":`...)
		b = strconv.AppendInt(b, int64(m.CalSamples), 10)
	}
	return append(b, '}')
}

// elemSep returns the byte that precedes array element i: the opening
// bracket for the first, a comma for the rest.
func elemSep(i int) byte {
	if i == 0 {
		return '['
	}
	return ','
}

// appendFloat writes a finite float as encoding/json does: the
// shortest representation, in exponent form below 1e-6 and from 1e21
// on, with a two-digit negative exponent cut to one ("1e-07" → "1e-7").
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString writes s as a JSON string. Printable ASCII other than
// `"`, `\`, `<`, `>` and `&` needs no escaping; any other string is
// written by json.Marshal, which escapes HTML characters, U+2028 and
// U+2029 and replaces invalid UTF-8.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ = appendMarshal(b, s) // a string always encodes
			return b
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// decodeResult parses a result line in the canonical layout: members
// in declaration order (any of them absent), no whitespace, strings
// without escapes and in valid UTF-8, numbers in JSON grammar that fit
// their field, and non-empty arrays. It reports false for any other
// line, which json.Unmarshal must then decode.
func decodeResult(line []byte) (Result, bool) {
	var r Result
	d := decoder{b: line}
	d.open('{')
	if d.key(`"point":`) {
		d.point(&r.Point)
	}
	if d.key(`"metrics":`) {
		d.metrics(&r.Metrics)
	}
	if d.key(`"err":`) {
		r.Err = d.str()
	}
	d.close('}')
	return r, !d.bad && d.i == len(line)
}

// decoder is a cursor over one line in the canonical layout. The first
// mismatch sets bad; every method is a no-op from then on. A value's
// end is never checked by the value itself: the key, comma or closing
// bracket that must follow it is, so "00", "1.5" for an integer field
// or trailing garbage all fail there.
type decoder struct {
	b   []byte
	i   int
	bad bool
}

// open consumes the opening bracket c.
func (d *decoder) open(c byte) {
	if d.bad || d.i >= len(d.b) || d.b[d.i] != c {
		d.bad = true
		return
	}
	d.i++
}

// close consumes the closing bracket c.
func (d *decoder) close(c byte) { d.open(c) }

// more consumes an array's separating comma and reports whether
// another element follows.
func (d *decoder) more() bool {
	if d.bad || d.i >= len(d.b) || d.b[d.i] != ',' {
		return false
	}
	d.i++
	return true
}

// key consumes the member name k (`"id":`) when it is next — preceded
// by a comma unless it is its object's first member — and reports
// whether it was.
func (d *decoder) key(k string) bool {
	if d.bad {
		return false
	}
	i := d.i
	if d.b[i-1] != '{' { // only an object's opening brace ends in '{'
		if i >= len(d.b) || d.b[i] != ',' {
			return false
		}
		i++
	}
	if len(d.b)-i < len(k) || string(d.b[i:i+len(k)]) != k {
		return false
	}
	d.i = i + len(k)
	return true
}

// uint64 consumes a non-negative JSON integer that fits a uint64.
func (d *decoder) uint64() uint64 {
	b, i := d.b, d.i
	if d.bad || i >= len(b) || b[i] < '0' || b[i] > '9' {
		d.bad = true
		return 0
	}
	if b[i] == '0' {
		d.i++
		return 0
	}
	var v uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		c := uint64(b[i] - '0')
		if v > (math.MaxUint64-c)/10 {
			d.bad = true
			return 0
		}
		v = v*10 + c
	}
	d.i = i
	return v
}

// int64 consumes a JSON integer that fits an int64.
func (d *decoder) int64() int64 {
	neg := !d.bad && d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	u := d.uint64()
	switch {
	case neg && u <= 1<<63:
		return -int64(u)
	case !neg && u <= math.MaxInt64:
		return int64(u)
	}
	d.bad = true
	return 0
}

// int consumes a JSON integer that fits an int.
func (d *decoder) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.bad = true
	}
	return int(v)
}

// float consumes a JSON number and converts it as json.Unmarshal does,
// with strconv.ParseFloat; a value out of float64 range fails.
func (d *decoder) float() float64 {
	if d.bad {
		return 0
	}
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = skipDigits(b, i); i == -1 {
		d.bad = true
		return 0
	}
	if i < len(b) && b[i] == '.' {
		if i = skipDigits(b, i+1); i == -1 {
			d.bad = true
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = skipDigits(b, i); i == -1 {
			d.bad = true
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(b[d.i:i]), 64)
	if err != nil {
		d.bad = true
		return 0
	}
	d.i = i
	return f
}

// skipDigits returns the index past the run of digits at b[i:], or -1
// when there is none.
func skipDigits(b []byte, i int) int {
	start := i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// raw consumes a JSON string without escapes or control characters,
// in valid UTF-8, and returns its contents.
func (d *decoder) raw() []byte {
	if d.bad || d.i >= len(d.b) || d.b[d.i] != '"' {
		d.bad = true
		return nil
	}
	start, ascii := d.i+1, true
	for i := start; i < len(d.b); i++ {
		c := d.b[i]
		if c == '"' {
			s := d.b[start:i]
			if !ascii && !utf8.Valid(s) {
				break
			}
			d.i = i + 1
			return s
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	d.bad = true
	return nil
}

// str consumes a string member value. The sweep grammar's fixed
// tokens come back shared instead of freshly allocated.
func (d *decoder) str() string {
	s := d.raw()
	if t, ok := sweepTokens[string(s)]; ok {
		return t
	}
	return string(s)
}

// sweepTokens maps each fixed token of the sweep grammar to itself.
var sweepTokens = func() map[string]string {
	m := map[string]string{}
	for _, t := range []string{
		"homog", "mpcore", "celllike", "wireless", "custom", "mesh", "bus",
		"jpeg", "h264", "carradio", "synth", "jobs",
		"list", "anneal", "exhaustive", "-", "mvp", "pipe", "vp", "cal", "rtos",
	} {
		m[t] = t
	}
	return m
}()

// class consumes a PE class name.
func (d *decoder) class() platform.PEClass {
	s := d.raw()
	for c := platform.PEClass(0); c.Named(); c++ {
		if string(s) == c.String() {
			return c
		}
	}
	d.bad = true
	return 0
}

// intMember, int64Member, uint64Member, floatMember and strMember
// decode member k into v when it is next.
func (d *decoder) intMember(k string, v *int) {
	if d.key(k) {
		*v = d.int()
	}
}

func (d *decoder) int64Member(k string, v *int64) {
	if d.key(k) {
		*v = d.int64()
	}
}

func (d *decoder) uint64Member(k string, v *uint64) {
	if d.key(k) {
		*v = d.uint64()
	}
}

func (d *decoder) floatMember(k string, v *float64) {
	if d.key(k) {
		*v = d.float()
	}
}

func (d *decoder) strMember(k string, v *string) {
	if d.key(k) {
		*v = d.str()
	}
}

// next steps to element i of a non-empty array — past its opening
// bracket for the first, past a comma for the rest — and reports
// whether there is one; after the last element it consumes the
// closing bracket.
func (d *decoder) next(i int) bool {
	if i == 0 {
		d.open('[')
		return !d.bad
	}
	if d.more() {
		return true
	}
	d.close(']')
	return false
}

func (d *decoder) point(p *Point) {
	d.open('{')
	d.intMember(`"id":`, &p.ID)
	d.uint64Member(`"seed":`, &p.Seed)
	if d.key(`"plat":`) {
		d.plat(&p.Plat)
	}
	d.strMember(`"wl":`, &p.Workload)
	d.intMember(`"n":`, &p.N)
	d.uint64Member(`"wl_seed":`, &p.WorkloadSeed)
	if d.key(`"apps":`) {
		for i := 0; d.next(i); i++ {
			p.Apps = append(p.Apps, AppRef{})
			d.app(&p.Apps[i])
		}
	}
	d.strMember(`"heur":`, &p.Heuristic)
	d.strMember(`"fid":`, &p.Fidelity)
	d.intMember(`"iters":`, &p.Iterations)
	d.intMember(`"quantum":`, &p.Quantum)
	if d.key(`"cal_probes":`) {
		for i := 0; d.next(i); i++ {
			p.CalProbes = append(p.CalProbes, CalProbe{})
			d.calProbe(&p.CalProbes[i])
		}
	}
	d.close('}')
}

func (d *decoder) plat(s *PlatSpec) {
	d.open('{')
	d.strMember(`"kind":`, &s.Kind)
	d.intMember(`"cores":`, &s.Cores)
	if d.key(`"mix":`) {
		for i := 0; d.next(i); i++ {
			s.Mix = append(s.Mix, platform.MixGroup{})
			d.mixGroup(&s.Mix[i])
		}
	}
	d.strMember(`"fabric":`, &s.Fabric)
	d.intMember(`"dvfs":`, &s.DVFS)
	d.strMember(`"mem":`, &s.Mem)
	d.close('}')
}

func (d *decoder) mixGroup(g *platform.MixGroup) {
	d.open('{')
	d.intMember(`"n":`, &g.N)
	if d.key(`"class":`) {
		g.Class = d.class()
	}
	d.intMember(`"mhz":`, &g.MHz)
	d.close('}')
}

func (d *decoder) app(a *AppRef) {
	d.open('{')
	d.strMember(`"kind":`, &a.Kind)
	d.intMember(`"n":`, &a.N)
	d.uint64Member(`"seed":`, &a.Seed)
	d.close('}')
}

func (d *decoder) calProbe(c *CalProbe) {
	d.open('{')
	d.strMember(`"heur":`, &c.Heur)
	d.uint64Member(`"seed":`, &c.Seed)
	d.close('}')
}

func (d *decoder) metrics(m *Metrics) {
	d.open('{')
	d.int64Member(`"makespan_ps":`, (*int64)(&m.Makespan))
	d.floatMember(`"throughput_hz":`, &m.ThroughputHz)
	d.int64Member(`"busy_ps":`, &m.BusyPS)
	d.floatMember(`"util_mean":`, &m.UtilMean)
	d.floatMember(`"util_max":`, &m.UtilMax)
	d.floatMember(`"energy":`, &m.Energy)
	d.floatMember(`"area":`, &m.Area)
	d.uint64Member(`"noc_transfers":`, &m.NoCTransfers)
	d.int64Member(`"noc_wait_ps":`, &m.NoCWaitPS)
	d.uint64Member(`"mem_transfers":`, &m.MemTransfers)
	d.int64Member(`"mem_wait_ps":`, &m.MemWaitPS)
	d.uint64Member(`"freq_switches":`, &m.FreqSwitches)
	d.uint64Member(`"sim_events":`, &m.SimEvents)
	d.uint64Member(`"vp_instr":`, &m.VPInstr)
	d.floatMember(`"miss_rate":`, &m.MissRate)
	d.floatMember(`"worst_load_cps":`, &m.WorstLoadCPS)
	if d.key(`"app_makespan_ps":`) {
		for i := 0; d.next(i); i++ {
			m.AppMakespanPS = append(m.AppMakespanPS, d.int64())
		}
	}
	d.floatMember(`"cal_scale":`, &m.CalScale)
	d.floatMember(`"cal_rms":`, &m.CalRMS)
	d.intMember(`"cal_samples":`, &m.CalSamples)
	d.close('}')
}
