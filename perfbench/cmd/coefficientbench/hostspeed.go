package main

import (
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference suite measures how fast the host is running right now.
// On a shared host the program's speed drifts with what the other
// tenants do, by minutes at a time, and a fixed piece of code run beside
// it drifts in step.  Over five 45 s runs of each workload on a 2-vCPU
// VM, the median replicas/s spread by 12% (first to third quartile, as
// a share of the median) and the median jobs/s by 14%; the same rates
// times the suite's median time spread by 1.3% and 2.4%.  The
// throughput metrics are therefore stated at the reference host speed
// (see adjusted).  The suite shares no code with the program, so a
// change in the program moves them in full.
//
// The suite is four fixed kernels, each run on procs() goroutines at
// once: integer arithmetic, random updates of a 1 MiB and of a 32 MiB
// table, and map updates, small allocations and sorting.  refSuite is
// its time on that VM when the host was quiet, so the adjusted rates
// read close to the measured ones there.
const refSuite = 70 * time.Millisecond

// suiteTables are the kernels' tables, one small and one large per
// goroutine.  They are mapped outside the Go heap, so they neither
// count in the live-heap metric nor pace the collector.
type suiteTables struct {
	small, large [][]uint32
	sink         []uint64
}

const (
	smallTable = 1 << 18 // uint32s: 1 MiB
	largeTable = 1 << 23 // uint32s: 32 MiB
)

func newSuiteTables() (*suiteTables, error) {
	t := &suiteTables{sink: make([]uint64, procs())}
	for g := 0; g < procs(); g++ {
		small, err := mapTable(smallTable)
		if err != nil {
			return nil, err
		}
		large, err := mapTable(largeTable)
		if err != nil {
			return nil, err
		}
		t.small, t.large = append(t.small, small), append(t.large, large)
	}
	return t, nil
}

// mapTable maps n zeroed uint32s of anonymous memory.
func mapTable(n int) ([]uint32, error) {
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n), nil
}

// close unmaps the tables.
func (t *suiteTables) close() error {
	for _, list := range [][][]uint32{t.small, t.large} {
		for _, table := range list {
			if err := syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&table[0])), 4*len(table))); err != nil {
				return err
			}
		}
	}
	return nil
}

// run times one run of the reference suite.
func (t *suiteTables) run() time.Duration {
	t0 := time.Now()
	for _, kernel := range []func(g int) uint64{
		kernelArith,
		func(g int) uint64 { return kernelTable(t.small[g], uint64(g), 4_000_000) },
		func(g int) uint64 { return kernelTable(t.large[g], uint64(g), 600_000) },
		kernelMap,
	} {
		var wg sync.WaitGroup
		for g := 0; g < procs(); g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				t.sink[g] += kernel(g)
			}(g)
		}
		wg.Wait()
	}
	return time.Since(t0)
}

// xorshift is the kernels' fixed pseudo-random sequence.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func kernelArith(g int) uint64 {
	x, acc := uint64(g+1), uint64(0)
	for i := 0; i < 3_000_000; i++ {
		x = xorshift(x)
		if x&3 == 0 {
			acc += x
		} else {
			acc ^= x >> 5
		}
	}
	return acc
}

// kernelTable makes n random read-modify-writes in table (a power of
// two long).
func kernelTable(table []uint32, g uint64, n int) uint64 {
	mask := uint64(len(table) - 1)
	x, acc := g+1, uint64(0)
	for i := 0; i < n; i++ {
		x = xorshift(x)
		j := x & mask
		table[j] += uint32(x)
		acc += uint64(table[(j*7)&mask])
	}
	return acc
}

type suiteNode struct {
	key  uint64
	next *suiteNode
}

func kernelMap(g int) uint64 {
	m := make(map[uint64]*suiteNode, 4096)
	s := make([]uint64, 0, 256)
	x, acc := uint64(g+1), uint64(0)
	for i := 0; i < 40_000; i++ {
		x = xorshift(x)
		k := x & 8191
		if n, ok := m[k]; ok {
			acc += n.key
			m[k] = &suiteNode{key: x, next: n.next}
		} else {
			m[k] = &suiteNode{key: x}
		}
		if i%64 == 0 {
			s = s[:0]
			for j := 0; j < 256; j++ {
				s = append(s, x*uint64(j)+acc)
			}
			sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
			acc += s[7]
		}
	}
	return acc
}

// adjusted states a rate measured beside runs of the reference suite
// at the reference host speed: the rate times how much slower than
// refSuite the suite ran (medians of both, so that a collection which
// happens to overlap one suite run does not move it).
func adjusted(rate float64, suites []time.Duration) float64 {
	return rate * median(seconds(suites)) / refSuite.Seconds()
}
