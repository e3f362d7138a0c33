package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"microfaas/internal/chunklog"
)

// pointerFree reports the first field of t, walked through structs and
// arrays, whose kind holds a pointer the garbage collector would scan.
func pointerFree(t reflect.Type, path string) error {
	switch t.Kind() {
	case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer,
		reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return fmt.Errorf("%s is a %s", path, t.Kind())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if err := pointerFree(f.Type, path+"."+f.Name); err != nil {
				return err
			}
		}
	case reflect.Array:
		return pointerFree(t.Elem(), path+"[]")
	}
	return nil
}

// TestRowLayout pins the stored record: no pointer for the collector to
// scan, and at most 80 bytes (the attempt's two energies included).
func TestRowLayout(t *testing.T) {
	if err := pointerFree(reflect.TypeOf(row{}), "row"); err != nil {
		t.Fatal(err)
	}
	if size := unsafe.Sizeof(row{}); size > 80 {
		t.Fatalf("row is %d bytes, want at most 80", size)
	}
}

// TestAddKnownNamesAllocs: filing a record whose function and worker the
// collector already knows allocates nothing but the chunks it fills (and
// now and then the chunk index), windowed or not.
func TestAddKnownNamesAllocs(t *testing.T) {
	const chunks = 4
	for _, c := range []*Collector{NewCollector(), NewWindowCollector(chunklog.ChunkSize)} {
		w := c.Worker("sbc-001")
		r := Record{Function: "CascSHA", Submitted: time.Second, Finished: 2 * time.Second, Exec: time.Millisecond}
		for i := 0; i < 3*chunklog.ChunkSize; i++ { // past the window: drops run too
			c.Add(w, r)
		}
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < chunks*chunklog.ChunkSize; i++ {
				r.JobID++
				c.Add(w, r)
			}
		})
		if allocs > 2*chunks {
			t.Fatalf("window %d: %v allocations for %d records, want at most %d (the chunks)", c.window, allocs, chunks*chunklog.ChunkSize, 2*chunks)
		}
	}
}

// TestWindowCollectorConcurrentReaders settles records from several
// goroutines into a windowed collector, errors and drops included, while
// others read it the way the live gateway's stats views do. Run under
// -race; each read must see a consistent table.
func TestWindowCollectorConcurrentReaders(t *testing.T) {
	const writers, perWriter = 4, 3 * chunklog.ChunkSize
	const window = chunklog.ChunkSize
	c := NewWindowCollector(window)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := c.Worker(fmt.Sprintf("live-%03d", g))
			for i := 0; i < perWriter; i++ {
				r := Record{JobID: int64(g*perWriter + i), Function: []string{"CascSHA", "MatMul"}[i%2], Finished: time.Duration(i)}
				if i%5 == 0 {
					r.Err = fmt.Sprintf("deadline exceeded (job %d)", r.JobID)
				}
				c.Add(w, r)
			}
		}()
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				recs := c.Records()
				if len(recs) > window+chunklog.ChunkSize {
					t.Errorf("the window holds %d records, want at most %d", len(recs), window+chunklog.ChunkSize)
					return
				}
				for _, r := range recs {
					if (r.Err != "") != (r.JobID%int64(perWriter)%5 == 0) || (r.Err != "" && r.Err != fmt.Sprintf("deadline exceeded (job %d)", r.JobID)) {
						t.Errorf("job %d read back with error %q", r.JobID, r.Err)
						return
					}
				}
				if s := Summarize(c); s.Completed+s.Errors > window+chunklog.ChunkSize {
					t.Errorf("Summarize saw %d records", s.Completed+s.Errors)
					return
				}
				ByFunction(c)
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if c.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", c.Len(), writers*perWriter)
	}
}

// windowRef applies a windowed collector's rule to a plain record list:
// once it holds window plus a chunk, the oldest chunk goes.
func windowRef(ref []Record, window int) []Record {
	if window > 0 && len(ref) >= window+chunklog.ChunkSize {
		return ref[chunklog.ChunkSize:]
	}
	return ref
}

// refSummary and refByFunction compute Summarize and ByFunction from a
// record list, as the collector computed them when it stored Records.
func refSummary(recs []Record) Summary {
	var s Summary
	var latency, cycle time.Duration
	for _, r := range recs {
		if r.Err != "" {
			s.Errors++
			continue
		}
		s.Completed++
		latency += r.Finished - r.Submitted
		cycle += r.Boot + r.Overhead + r.Exec
		s.latencies = append(s.latencies, r.Finished-r.Submitted)
		s.finished = append(s.finished, r.Finished)
	}
	if s.Completed > 0 {
		s.MeanLatency = latency / time.Duration(s.Completed)
		s.MeanCycle = cycle / time.Duration(s.Completed)
	}
	return s
}

func refByFunction(recs []Record) []FunctionStats {
	type group struct {
		st             FunctionStats
		exec, ovh, lat time.Duration
		totals         []time.Duration
	}
	groups := map[string]*group{}
	for _, r := range recs {
		g := groups[r.Function]
		if g == nil {
			g = &group{st: FunctionStats{Function: r.Function}}
			groups[r.Function] = g
		}
		g.st.Count++
		if r.Err != "" {
			g.st.Errors++
			continue
		}
		g.exec += r.Exec
		g.ovh += r.Overhead
		g.lat += r.Finished - r.Submitted
		g.totals = append(g.totals, r.Exec+r.Overhead)
	}
	out := make([]FunctionStats, 0, len(groups))
	for _, g := range groups {
		if ok := time.Duration(len(g.totals)); ok > 0 {
			g.st.MeanExec = g.exec / ok
			g.st.MeanOverhead = g.ovh / ok
			g.st.MeanTotal = (g.exec + g.ovh) / ok
			g.st.MeanLatency = g.lat / ok
			g.st.P50Total = Percentile(g.totals, 50)
			g.st.P95Total = Percentile(g.totals, 95)
		}
		out = append(out, g.st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Function < out[j].Function })
	return out
}

// fuzzRecords decodes data into record templates — function and worker
// names of up to three arbitrary bytes, a failure flag, an attempt in
// core's range and six arbitrary durations — and cycles through them for n
// records, each with its own job id and, when failed, its own error text.
func fuzzRecords(data []byte, n int) []Record {
	next := func(k int) []byte {
		b := make([]byte, k)
		copy(b, data)
		data = data[min(k, len(data)):]
		return b
	}
	var templates []Record
	for len(data) > 0 {
		h := next(3)
		r := Record{
			Function: string(next(int(h[0] % 4))),
			Worker:   string(next(int(h[1] % 4))),
			Attempt:  int(binary.LittleEndian.Uint32(next(4)) % math.MaxInt32),
		}
		if h[2]%3 == 0 {
			r.Err = "boom"
			r.TimedOut = h[2]%2 == 0
		}
		for _, d := range []*time.Duration{&r.Submitted, &r.Started, &r.Finished, &r.Boot, &r.Overhead, &r.Exec} {
			*d = time.Duration(int32(binary.LittleEndian.Uint32(next(4)))) * time.Microsecond
		}
		// Energies a float32 holds exactly, as a row stores them.
		r.BootJoules = float64(float32(r.Boot.Seconds() * 1.96))
		r.Joules = float64(float32(r.Boot.Seconds()*1.96 + (r.Overhead+r.Exec).Seconds()*2.1))
		templates = append(templates, r)
	}
	if len(templates) == 0 {
		return nil
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = templates[i%len(templates)]
		recs[i].JobID = int64(i + 1)
		if recs[i].Err != "" {
			recs[i].Err = fmt.Sprintf("boom (job %d)", i+1)
		}
	}
	return recs
}

// FuzzCollectorRows holds the row store to the record list it replaced: a
// windowed and an unwindowed collector, fed the same arbitrary records,
// read back what a []Record under the same window rule holds, and their
// name tables grow with the distinct functions and workers only — never
// with the error texts, which all differ.
func FuzzCollectorRows(f *testing.F) {
	f.Add(uint16(0), uint16(10), []byte("\x01\x02\x00fAw1\x00\x00\x00\x00abcdefghijklmnopqrstuvwx"))
	f.Add(uint16(1500), uint16(4000), []byte("\x02\x01\x03SHAw\x01\x00\x00\x00\x10\x00\x00\x00\x20\x00\x00\x00\x30\x00\x00\x00\x04\x00\x00\x00\x05\x00\x00\x00\x06\x00\x00\x00\x03\x02\x00MD5w2\xff\xff\xff\xff"))
	f.Add(uint16(1), uint16(3000), []byte("\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, windowRaw, nRaw uint16, data []byte) {
		window := int(windowRaw % (3 * chunklog.ChunkSize))
		recs := fuzzRecords(data, int(nRaw%(5*chunklog.ChunkSize)))
		fns, workers := map[string]bool{}, map[string]bool{}
		full, windowed := NewCollector(), NewWindowCollector(window)
		var ref, wref []Record
		errs := 0
		for _, r := range recs {
			fns[r.Function], workers[r.Worker] = true, true
			for _, c := range []*Collector{full, windowed} {
				c.Add(c.Worker(r.Worker), r)
			}
			ref = append(ref, r)
			wref = windowRef(append(wref, r), window)
			if r.Err != "" {
				errs++
			}
		}
		for _, tc := range []struct {
			name string
			c    *Collector
			want []Record
		}{{"unwindowed", full, ref}, {fmt.Sprintf("window %d", window), windowed, wref}} {
			if got := tc.c.Records(); len(got) != len(tc.want) || (len(got) > 0 && !reflect.DeepEqual(got, tc.want)) {
				t.Fatalf("%s: Records differ from the reference (%d vs %d records)", tc.name, len(got), len(tc.want))
			}
			if tc.c.Len() != len(recs) || tc.c.ErrorCount() != errs {
				t.Fatalf("%s: Len/ErrorCount = %d/%d, want %d/%d", tc.name, tc.c.Len(), tc.c.ErrorCount(), len(recs), errs)
			}
			if got, want := Summarize(tc.c), refSummary(tc.want); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Summarize = %+v, want %+v", tc.name, got, want)
			}
			if got, want := ByFunction(tc.c), refByFunction(tc.want); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ByFunction = %+v, want %+v", tc.name, got, want)
			}
			if tc.c.fns.Len() > len(fns) || tc.c.workers.Len() > len(workers) {
				t.Fatalf("%s: name tables hold %d functions and %d workers, fed %d and %d", tc.name, tc.c.fns.Len(), tc.c.workers.Len(), len(fns), len(workers))
			}
			failed := 0
			for _, r := range tc.want {
				if r.Err != "" {
					failed++
				}
			}
			if len(tc.c.errs) != failed {
				t.Fatalf("%s: the error log holds %d texts for %d retained failures", tc.name, len(tc.c.errs), failed)
			}
		}
	})
}
