package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's per-core speed is not constant: on a shared host, neighbours
// come and go. On the 2-vCPU VM the benchmark was written on, steady's raw
// saturation rate ranged from 118 to 174 runs/s over runs of the same code
// within an hour, while GC cycles per run held at 0.87: the work per run
// did not change, the CPU time it took did. So a probe times a fixed piece
// of reference work on its own thread every probePeriod all through a run,
// and the CPU-bound end-to-end figures are scaled to a nominal host speed:
// a phase in which the reference took twice its nominal time counts its
// runs twice as fast. The reference is shaped like the run store's history
// sort, which dominates steady; it tracks deep_compute's compute loops too
// (README.md has the spreads with and without scaling). The raw figures
// stay in the report line.

// probePeriod is how often the probe times the reference work; each sample
// costs under half a millisecond of one core.
const probePeriod = 20 * time.Millisecond

// probeMinSamples is how many samples a speed estimate takes at least,
// widening the interval around its middle when it holds fewer.
const probeMinSamples = 9

// refNominalMS is the reference's median time in a saturation phase on the
// 2-vCPU VM the benchmark was written on: scaled figures read roughly as if
// measured there.
const refNominalMS = 0.3

// refItem is sized and shaped like a stored run snapshot: a sort key, an
// ID and a payload copied along with it. It holds no pointers, so the
// reference's buffers can live outside the Go heap.
type refItem struct {
	at  int64
	id  [16]byte
	pad [232]byte
}

// refItems sorts by finish time, then ID, like the run store's eviction.
type refItems []refItem

func (r refItems) Len() int      { return len(r) }
func (r refItems) Swap(i, j int) { r[i], r[j] = r[j], r[i] }
func (r refItems) Less(i, j int) bool {
	if r[i].at != r[j].at {
		return r[i].at < r[j].at
	}
	return bytes.Compare(r[i].id[:], r[j].id[:]) < 0
}

// reference is a fixed piece of CPU work shaped like the run store's hot
// path: copy a history of snapshots, then sort it by finish time and ID.
// Its buffers are mapped outside the Go heap: the service's GC paces
// itself on the live heap, and a probe that grew it would make the service
// collect less often and run faster.
type reference struct {
	src, dst refItems
}

// newReference builds the reference work; release frees its buffers.
func newReference() (ref *reference, release func(), err error) {
	const n = 1024
	size := 2 * n * int(unsafe.Sizeof(refItem{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	items := unsafe.Slice((*refItem)(unsafe.Pointer(&mem[0])), 2*n)
	r := &reference{src: items[:n:n], dst: items[n:]}
	rng := rand.New(rand.NewSource(1))
	for i := range r.src {
		r.src[i].at = rng.Int63n(1 << 20)
		binary.BigEndian.PutUint64(r.src[i].id[:], rng.Uint64())
	}
	return r, func() { syscall.Munmap(mem) }, nil
}

// once does the reference work one time.
func (r *reference) once() {
	copy(r.dst, r.src)
	sort.Sort(r.dst)
}

// threadCPU is the calling OS thread's CPU time, so time the thread spent
// descheduled does not count.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeSample is one timing of the reference work.
type probeSample struct {
	at time.Time
	ms float64
}

// probe times the reference work every probePeriod on a locked thread
// from startProbe until stop.
type probe struct {
	mu      sync.Mutex
	samples []probeSample
	stopped chan struct{}
	done    chan struct{}
}

func startProbe() (*probe, error) {
	ref, release, err := newReference()
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	p := &probe{stopped: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(p.done)
		defer release()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		ref.once()
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		close(ready)
		for {
			at := time.Now()
			t0 := threadCPU()
			ref.once()
			d := threadCPU() - t0
			p.mu.Lock()
			p.samples = append(p.samples, probeSample{at, ms(d)})
			p.mu.Unlock()
			select {
			case <-p.stopped:
				return
			case <-tick.C:
			}
		}
	}()
	<-ready
	return p, nil
}

// stop ends the probe and waits for its goroutine.
func (p *probe) stop() {
	close(p.stopped)
	<-p.done
}

// slowdown is how much slower than nominal the host ran over [from, to]:
// the median reference time of the samples in it over refNominalMS. An
// interval with fewer than probeMinSamples samples takes the ones nearest
// its middle.
func (p *probe) slowdown(from, to time.Time) float64 {
	p.mu.Lock()
	all := append([]probeSample(nil), p.samples...)
	p.mu.Unlock()
	var in []float64
	for _, s := range all {
		if !s.at.Before(from) && s.at.Before(to) {
			in = append(in, s.ms)
		}
	}
	if len(in) < probeMinSamples {
		mid := from.Add(to.Sub(from) / 2)
		sort.Slice(all, func(i, j int) bool { return absDur(all[i].at.Sub(mid)) < absDur(all[j].at.Sub(mid)) })
		in = in[:0]
		for _, s := range all[:min(len(all), probeMinSamples)] {
			in = append(in, s.ms)
		}
	}
	return percentile(in, 50) / refNominalMS
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
