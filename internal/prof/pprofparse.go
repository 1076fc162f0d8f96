package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file is a minimal reader for the pprof profile.proto format —
// just enough of the protobuf wire format and the Profile message to
// rank and diff allocation sites without any dependency outside the
// standard library. The runtime writes heap and CPU profiles in this
// format (gzipped); field numbers below follow
// github.com/google/pprof/proto/profile.proto.

// Profile is a parsed pprof profile: sample types, samples with
// resolved function stacks, and the period metadata bsprof prints.
type Profile struct {
	// SampleTypes names each value column as "type/unit"
	// (e.g. "alloc_space/bytes", "inuse_objects/count").
	SampleTypes []string
	// Samples are the profile's samples with resolved stacks.
	Samples []Sample
}

// Sample is one pprof sample: a stack of function names (leaf first)
// and one value per sample type.
type Sample struct {
	// Stack holds fully-qualified function names, leaf first.
	Stack []string
	// Values holds one value per Profile.SampleTypes entry.
	Values []int64
}

// wire is a protobuf wire-format cursor.
type wire struct {
	b []byte
	i int
}

// errTruncated reports a message ending mid-field.
var errTruncated = fmt.Errorf("prof: truncated profile")

// varint reads one base-128 varint.
func (w *wire) varint() (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if w.i >= len(w.b) {
			return 0, errTruncated
		}
		c := w.b[w.i]
		w.i++
		v |= uint64(c&0x7f) << shift
		if c&0x80 == 0 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("prof: varint overflow")
}

// field reads the next field tag, returning its number and wire type.
func (w *wire) field() (num int, typ int, err error) {
	tag, err := w.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(tag >> 3), int(tag & 7), nil
}

// bytes reads one length-delimited payload.
func (w *wire) bytes() ([]byte, error) {
	n, err := w.varint()
	if err != nil {
		return nil, err
	}
	if uint64(len(w.b)-w.i) < n {
		return nil, errTruncated
	}
	out := w.b[w.i : w.i+int(n)]
	w.i += int(n)
	return out, nil
}

// skip discards one field payload of the given wire type.
func (w *wire) skip(typ int) error {
	switch typ {
	case 0: // varint
		_, err := w.varint()
		return err
	case 1: // fixed64
		if len(w.b)-w.i < 8 {
			return errTruncated
		}
		w.i += 8
		return nil
	case 2: // length-delimited
		_, err := w.bytes()
		return err
	case 5: // fixed32
		if len(w.b)-w.i < 4 {
			return errTruncated
		}
		w.i += 4
		return nil
	default:
		return fmt.Errorf("prof: unsupported wire type %d", typ)
	}
}

// done reports whether the cursor consumed its buffer.
func (w *wire) done() bool { return w.i >= len(w.b) }

// ints reads a repeated integer field that may arrive packed (one
// length-delimited blob) or as a single unpacked value.
func ints(w *wire, typ int, into []int64) ([]int64, error) {
	if typ == 2 {
		blob, err := w.bytes()
		if err != nil {
			return nil, err
		}
		pw := &wire{b: blob}
		for !pw.done() {
			v, err := pw.varint()
			if err != nil {
				return nil, err
			}
			into = append(into, int64(v))
		}
		return into, nil
	}
	v, err := w.varint()
	if err != nil {
		return nil, err
	}
	return append(into, int64(v)), nil
}

// Parser bounds. Profiles arrive from files and from a server's profile
// ring, so neither decompression nor stack expansion may grow without
// limit. A stack entry is one (location, line) pair a sample names, so a
// crafted profile that names one many-line location many times expands
// quadratically in its size; real profiles expand to well under one
// entry per byte.
const (
	// maxProfileBytes caps a profile's decompressed size.
	maxProfileBytes = 16 << 20
	// maxStackEntriesPerByte bounds the total stack entries of all
	// samples by the decompressed size, plus minStackEntries of slack
	// for tiny profiles.
	maxStackEntriesPerByte = 4
	minStackEntries        = 4096
)

// ParseProfile parses a pprof profile, transparently gunzipping (the
// runtime writes profiles gzipped; debug=1 text forms are rejected).
// Profiles that decompress past maxProfileBytes, or whose stacks expand
// past maxStackEntriesPerByte entries per decompressed byte, are errors.
func ParseProfile(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip profile: %w", err)
		}
		raw, err := io.ReadAll(io.LimitReader(zr, maxProfileBytes+1))
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip profile: %w", err)
		}
		data = raw
	}
	if len(data) > maxProfileBytes {
		return nil, fmt.Errorf("prof: profile larger than %d bytes", maxProfileBytes)
	}

	// First pass: collect raw messages and the string table.
	type rawSample struct {
		locIDs []int64
		values []int64
	}
	type line struct {
		funcID uint64
	}
	var (
		strTab      []string
		sampleTypes [][2]int64 // (type, unit) string indices
		samples     []rawSample
		locLines    = map[uint64][]line{}
		funcNames   = map[uint64]int64{}
	)

	w := &wire{b: data}
	for !w.done() {
		num, typ, err := w.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			blob, err := w.bytes()
			if err != nil {
				return nil, err
			}
			vw := &wire{b: blob}
			var st [2]int64
			for !vw.done() {
				n, t, err := vw.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1, 2:
					v, err := vw.varint()
					if err != nil {
						return nil, err
					}
					st[n-1] = int64(v)
				default:
					if err := vw.skip(t); err != nil {
						return nil, err
					}
				}
			}
			sampleTypes = append(sampleTypes, st)
		case 2: // sample: {location_id=1, value=2}
			blob, err := w.bytes()
			if err != nil {
				return nil, err
			}
			sw := &wire{b: blob}
			var rs rawSample
			for !sw.done() {
				n, t, err := sw.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if rs.locIDs, err = ints(sw, t, rs.locIDs); err != nil {
						return nil, err
					}
				case 2:
					if rs.values, err = ints(sw, t, rs.values); err != nil {
						return nil, err
					}
				default:
					if err := sw.skip(t); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, rs)
		case 4: // location: {id=1, line=4{function_id=1}}
			blob, err := w.bytes()
			if err != nil {
				return nil, err
			}
			lw := &wire{b: blob}
			var id uint64
			var lines []line
			for !lw.done() {
				n, t, err := lw.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if id, err = lw.varint(); err != nil {
						return nil, err
					}
				case 4:
					lblob, err := lw.bytes()
					if err != nil {
						return nil, err
					}
					llw := &wire{b: lblob}
					var ln line
					for !llw.done() {
						m, tt, err := llw.field()
						if err != nil {
							return nil, err
						}
						if m == 1 {
							if ln.funcID, err = llw.varint(); err != nil {
								return nil, err
							}
						} else if err := llw.skip(tt); err != nil {
							return nil, err
						}
					}
					lines = append(lines, ln)
				default:
					if err := lw.skip(t); err != nil {
						return nil, err
					}
				}
			}
			locLines[id] = lines
		case 5: // function: {id=1, name=2}
			blob, err := w.bytes()
			if err != nil {
				return nil, err
			}
			fw := &wire{b: blob}
			var id uint64
			var nameIdx int64
			for !fw.done() {
				n, t, err := fw.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if id, err = fw.varint(); err != nil {
						return nil, err
					}
				case 2:
					v, err := fw.varint()
					if err != nil {
						return nil, err
					}
					nameIdx = int64(v)
				default:
					if err := fw.skip(t); err != nil {
						return nil, err
					}
				}
			}
			funcNames[id] = nameIdx
		case 6: // string_table
			blob, err := w.bytes()
			if err != nil {
				return nil, err
			}
			strTab = append(strTab, string(blob))
		default:
			if err := w.skip(typ); err != nil {
				return nil, err
			}
		}
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strTab) {
			return ""
		}
		return strTab[i]
	}

	budget := maxStackEntriesPerByte*len(data) + minStackEntries
	for _, rs := range samples {
		for _, locID := range rs.locIDs {
			if budget -= len(locLines[uint64(locID)]); budget < 0 {
				return nil, fmt.Errorf("prof: stacks expand past %d entries per profile byte", maxStackEntriesPerByte)
			}
		}
	}

	p := &Profile{}
	for _, st := range sampleTypes {
		p.SampleTypes = append(p.SampleTypes, str(st[0])+"/"+str(st[1]))
	}
	if len(p.SampleTypes) == 0 {
		return nil, fmt.Errorf("prof: no sample types (not a pprof protobuf profile?)")
	}
	for _, rs := range samples {
		s := Sample{Values: rs.values}
		for _, locID := range rs.locIDs {
			for _, ln := range locLines[uint64(locID)] {
				if name := str(funcNames[ln.funcID]); name != "" {
					s.Stack = append(s.Stack, name)
				}
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// TypeIndex resolves a sample-type name ("alloc_space", or the full
// "alloc_space/bytes") to its value column, or -1 when absent.
func (p *Profile) TypeIndex(name string) int {
	for i, st := range p.SampleTypes {
		if st == name || strings.TrimSuffix(st, "/"+unitOf(st)) == name {
			return i
		}
	}
	return -1
}

// unitOf splits the unit from a "type/unit" sample-type name.
func unitOf(st string) string {
	if i := strings.LastIndexByte(st, '/'); i >= 0 {
		return st[i+1:]
	}
	return ""
}

// Site is one allocation (or CPU) site: a leaf function and its flat
// value in the chosen sample-type column.
type Site struct {
	// Func is the fully-qualified leaf function name.
	Func string
	// Flat is the summed value attributed to samples leafing here.
	Flat int64
}

// FlatByFunc sums the chosen value column by leaf function — the
// "flat" attribution pprof's top view uses.
func (p *Profile) FlatByFunc(typeIdx int) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range p.Samples {
		if typeIdx < 0 || typeIdx >= len(s.Values) || len(s.Stack) == 0 {
			continue
		}
		out[s.Stack[0]] += s.Values[typeIdx]
	}
	return out
}

// TopSites ranks leaf functions by flat value, descending, ties broken
// by name so the output is stable; n <= 0 returns every site.
func (p *Profile) TopSites(typeIdx, n int) []Site {
	return rankSites(p.FlatByFunc(typeIdx), n)
}

// DiffSites subtracts before's flat values from after's per leaf
// function and ranks the deltas descending — the heap-growth view
// between two snapshots. Sites present on one side only contribute
// their full (or negated) value.
func DiffSites(before, after *Profile, typeIdx int, n int) []Site {
	delta := after.FlatByFunc(typeIdx)
	for fn, v := range before.FlatByFunc(typeIdx) {
		delta[fn] -= v
	}
	return rankSites(delta, n)
}

// PathSites ranks leaf sites restricted to samples whose stack passes
// through any of the given substrings — how bsprof attributes
// allocation sites to a pipeline path (e.g. every sample that crossed
// internal/features belongs to the extract path).
func (p *Profile) PathSites(typeIdx int, substrs []string, n int) []Site {
	flat := make(map[string]int64)
	for _, s := range p.Samples {
		if typeIdx < 0 || typeIdx >= len(s.Values) || len(s.Stack) == 0 {
			continue
		}
		if !stackMatches(s.Stack, substrs) {
			continue
		}
		flat[s.Stack[0]] += s.Values[typeIdx]
	}
	return rankSites(flat, n)
}

// stackMatches reports whether any frame contains any substring.
func stackMatches(stack, substrs []string) bool {
	for _, fr := range stack {
		for _, sub := range substrs {
			if strings.Contains(fr, sub) {
				return true
			}
		}
	}
	return false
}

// rankSites orders a flat map descending by value (ties by name) and
// truncates to n (n <= 0 keeps all). Zero-valued sites are dropped.
func rankSites(flat map[string]int64, n int) []Site {
	sites := make([]Site, 0, len(flat))
	for fn, v := range flat {
		if v != 0 {
			sites = append(sites, Site{Func: fn, Flat: v})
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].Flat != sites[j].Flat {
			return sites[i].Flat > sites[j].Flat
		}
		return sites[i].Func < sites[j].Func
	})
	if n > 0 && len(sites) > n {
		sites = sites[:n]
	}
	return sites
}
