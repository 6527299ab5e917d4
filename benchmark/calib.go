package main

import "time"

// refBuf is the calibration kernel's input: fixed pseudo-XML, the same on
// every seed, workload and commit.
var refBuf = func() []byte {
	const names = "ProteinEntry header uid accession reference refinfo authors author citation xrefs xref db feature sequence "
	b := make([]byte, 0, 128<<10)
	x := uint32(2463534242)
	for len(b) < 128<<10 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		start := int(x>>8) % (len(names) - 12)
		b = append(b, '<')
		for i := start; names[i] != ' '; i++ {
			b = append(b, names[i])
		}
		b = append(b, '>')
		for i := 0; i < int(x&31); i++ {
			b = append(b, byte('a'+(x>>uint(i&15))&15))
		}
		b = append(b, '<', '/', 'x', '>')
	}
	return b
}()

var refSink uint32

// refNominal is refKernel's reading on the quiet seed host. A round's host
// factor is its adjacent kernel readings over this; at 1.0 a normalised
// metric equals the raw one.
const refNominal = 190 * time.Microsecond

// hostFactor runs fn between two readings of the reference kernel and
// returns how much slower than nominal the host was around it. On a shared
// VM the neighbours slow the CPU by up to 2x for seconds to minutes (steal
// time stays zero; a compute kernel slows, a memory-latency one does not),
// which no statistic inside a run removes. Timing a frozen kernel right
// beside each round and scaling the round's reading by it does: the A/A
// spread of the round medians halves on a busy host and is unchanged on a
// quiet one (AA.md).
func hostFactor(fn func() error) (float64, error) {
	before := refKernel()
	err := fn()
	return float64(before+refKernel()) / float64(2*refNominal), err
}

// refKernel is a frozen tokenizer loop over refBuf — branchy byte scanning
// and name hashing, the instruction mix of the scanner and machine — and
// returns how long it took. It is the benchmark's own code, so no change to
// the repository moves it; only the host does.
func refKernel() time.Duration {
	t0 := time.Now()
	var counts [256]uint32
	var text uint32
	b := refBuf
	for i := 0; i < len(b); {
		if b[i] != '<' {
			text++
			i++
			continue
		}
		h := uint32(2166136261)
		for i++; i < len(b) && b[i] != '>'; i++ {
			h = (h ^ uint32(b[i])) * 16777619
		}
		counts[h&255]++
		i++
	}
	refSink += text + counts[7]
	return time.Since(t0)
}
