package device

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"failstutter/internal/sim"
)

// accessRef is the reference disk access: a fresh request and completion
// closure per call, the shape Disk.AccessSpan had before it recycled its
// records. It is untraced; the recycled path is checked against it.
func accessRef(d *Disk, block, blocks int64, isWrite bool, onDone func(latency float64)) {
	size := d.serviceTime(block, blocks)
	bytes := float64(blocks) * d.params.BlockBytes
	d.station.Submit(&sim.Request{Size: size, OnDone: func(r *sim.Request) {
		d.bytesDone += bytes
		if isWrite {
			d.writes++
		} else {
			d.reads++
		}
		if onDone != nil {
			onDone(r.Latency())
		}
	}})
}

// sendRef is the reference link send: a fresh request, a completion
// closure and a delivery closure per message.
func sendRef(l *Link, bytes float64, onDelivered func(latency float64)) {
	start := l.s.Now()
	l.station.Submit(&sim.Request{Size: bytes, OnDone: func(*sim.Request) {
		l.s.After(l.latency, func() {
			l.bytesDone += bytes
			l.delivered++
			if onDelivered != nil {
				onDelivered(l.s.Now() - start)
			}
		})
	}})
}

// completion is one entry of a device program's log.
type completion struct {
	id      int
	at      sim.Time
	latency float64
}

// deviceCounters are the device totals a program ends with.
type deviceCounters struct {
	diskBytes, linkBytes            float64
	reads, writes, delivered        uint64
	diskAbandoned, linkAbandoned    uint64
	diskCompleted, linkCompleted    uint64
	diskBusy, linkBusy, diskBacklog float64
}

// runDeviceProgram interprets data as a program of disk accesses, link
// sends, rate changes, failures and repairs on one disk and one link, and
// returns the completion log and the final counters. Completions submit
// follow-up requests from inside their callbacks, so recycled records are
// handed straight back out. fresh selects the reference paths.
func runDeviceProgram(data []byte, fresh bool) ([]completion, deviceCounters) {
	s := sim.New()
	d := MustDisk(s, DiskParams{
		Name:           "fuzz-disk",
		CapacityBlocks: 1 << 12,
		BlockBytes:     4096,
		Zones:          []Zone{{CapacityFrac: 0.5, Bandwidth: 8e6}, {CapacityFrac: 0.5, Bandwidth: 4e6}},
		SeekTime:       0.004,
		AgingFactor:    1,
	})
	l := NewLink(s, "fuzz-link", 1e6, 0.002)
	var log []completion
	nextID := 0
	var access func(block, blocks int64, isWrite bool, children int)
	var send func(bytes float64, children int)
	access = func(block, blocks int64, isWrite bool, children int) {
		id := nextID
		nextID++
		onDone := func(latency float64) {
			log = append(log, completion{id, s.Now(), latency})
			for c := 0; c < children; c++ {
				access((block+int64(7*id+c))%4000, 1+int64(id+c)%8, c%2 == 0, children-1)
			}
		}
		if fresh {
			accessRef(d, block, blocks, isWrite, onDone)
		} else {
			d.Access(block, blocks, isWrite, onDone)
		}
	}
	send = func(bytes float64, children int) {
		id := nextID
		nextID++
		onDelivered := func(latency float64) {
			log = append(log, completion{id, s.Now(), latency})
			for c := 0; c < children; c++ {
				send(1+float64((id*37+c*11)%5000), children-1)
			}
		}
		if fresh {
			sendRef(l, bytes, onDelivered)
		} else {
			l.Send(bytes, onDelivered)
		}
	}
	for i := 0; i+4 <= len(data) && i < 4*256; i += 4 {
		op, at, x, y := data[i]%6, float64(data[i+1])*0.005, data[i+2], data[i+3]
		switch op {
		case 0:
			s.At(at, func() { access(int64(x)*15, 1+int64(y%32), y&32 != 0, int(y>>6)) })
		case 1:
			s.At(at, func() { send(1+float64(x)*97, int(y%4)) })
		case 2:
			s.At(at, func() { d.SetMultiplier(float64(x%5) / 4) })
		case 3:
			s.At(at, func() { l.station.SetMultiplier(float64(x%5) / 4) })
		case 4:
			if x%2 == 0 {
				s.At(at, d.Fail)
			} else {
				s.At(at, l.station.Fail)
			}
		case 5:
			if x%2 == 0 {
				s.At(at, d.station.Repair)
			} else {
				s.At(at, l.station.Repair)
			}
		}
	}
	// Stalled stations keep requests forever; the horizon bounds the run.
	s.RunUntil(60)
	return log, deviceCounters{
		diskBytes: d.BytesCompleted(), linkBytes: l.BytesDelivered(),
		reads: d.Reads(), writes: d.Writes(), delivered: l.Delivered(),
		diskAbandoned: d.station.Abandoned(), linkAbandoned: l.station.Abandoned(),
		diskCompleted: d.station.Completed(), linkCompleted: l.station.Completed(),
		diskBusy: d.BusyTime(), linkBusy: l.station.BusyTime(), diskBacklog: d.station.BacklogWork(),
	}
}

// checkRecycledMatchesFresh runs one program both ways and compares them
// exactly: recycling a record must change no completion, time or count.
func checkRecycledMatchesFresh(t *testing.T, data []byte) {
	t.Helper()
	gotLog, got := runDeviceProgram(data, false)
	wantLog, want := runDeviceProgram(data, true)
	if len(gotLog) != len(wantLog) {
		t.Fatalf("recycled records logged %d completions, fresh ones %d", len(gotLog), len(wantLog))
	}
	for i := range wantLog {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("completion %d: recycled %+v, fresh %+v", i, gotLog[i], wantLog[i])
		}
	}
	if got != want {
		t.Fatalf("counters: recycled %+v, fresh %+v", got, want)
	}
}

func TestRecycledDeviceMatchesFresh(t *testing.T) {
	programs := [][]byte{
		// Back-to-back disk accesses with re-entrant follow-ups.
		{0, 0, 1, 0xe3, 0, 0, 9, 0x45, 0, 1, 200, 0x8f},
		// Link sends, then a stall and its recovery mid-flight.
		{1, 0, 10, 3, 1, 0, 200, 2, 3, 1, 0, 0, 3, 40, 4, 0},
		// A disk fails under load, is repaired and serves again.
		{0, 0, 5, 0xff, 0, 0, 6, 0xc1, 4, 2, 0, 0, 5, 10, 0, 0, 0, 12, 3, 0x41},
		// A link fails with messages on the wire and in its queue.
		{1, 0, 255, 3, 1, 0, 255, 3, 4, 1, 1, 0, 5, 30, 1, 0, 1, 31, 2, 1},
	}
	for i, p := range programs {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkRecycledMatchesFresh(t, p) })
	}
}

// FuzzRecycledDeviceMatchesFresh checks the disk and link record free
// lists against the fresh-record reference on random programs of
// accesses, sends, re-entrant submits, rate changes, failures and
// repairs.
func FuzzRecycledDeviceMatchesFresh(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0xe3, 1, 0, 10, 3, 2, 3, 0, 0, 2, 30, 4, 0})
	f.Add([]byte{0, 0, 5, 0xff, 1, 0, 255, 3, 4, 2, 0, 0, 4, 2, 1, 0, 5, 10, 0, 0, 5, 11, 1, 0, 0, 12, 3, 0x41})
	f.Fuzz(func(t *testing.T, data []byte) { checkRecycledMatchesFresh(t, data) })
}

// A disk access whose callback is built once allocates nothing in steady
// state: its record and request come back from the disk's free list.
func TestDiskAccessAllocs(t *testing.T) {
	s := sim.New()
	d := flatDisk(s, "d", 1e6)
	onDone := func(float64) {}
	allocs := testing.AllocsPerRun(1000, func() {
		d.Access(0, 1, false, onDone)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("Disk.Access allocates %v times per access, want 0", allocs)
	}
}

// A link send allocates nothing in steady state: the message record,
// its request and both stage callbacks are reused.
func TestLinkSendAllocs(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "l", 1e6, 0.001)
	onDelivered := func(float64) {}
	allocs := testing.AllocsPerRun(1000, func() {
		l.Send(100, onDelivered)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("Link.Send allocates %v times per message, want 0", allocs)
	}
}

// mustPanicWith runs fn and fails unless it panics with a message
// containing want.
func mustPanicWith(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	fn()
}

// A holder that keeps a record's request past its completion and submits
// or completes it again hits the poison instead of replaying a stale
// access.
func TestReleasedRecordsArePoisoned(t *testing.T) {
	s := sim.New()
	d := flatDisk(s, "d", 1e6)
	d.Read(0, 1, nil)
	diskReq := d.station.InService()
	l := NewLink(s, "l", 1e6, 0.001)
	l.Send(100, nil)
	linkReq := l.station.InService()
	s.Run()
	for _, tc := range []struct {
		name string
		req  *sim.Request
		st   *sim.Station
	}{{"diskOp", diskReq, d.station}, {"linkMsg", linkReq, l.station}} {
		if !math.IsNaN(tc.req.Size) {
			t.Fatalf("released %s keeps size %v", tc.name, tc.req.Size)
		}
		mustPanicWith(t, "invalid size NaN", func() { tc.st.Submit(tc.req) })
		mustPanicWith(t, tc.name+" completed after its release", func() { tc.req.OnDone(tc.req) })
	}
}
