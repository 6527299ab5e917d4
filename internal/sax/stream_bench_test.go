package sax_test

import (
	"bytes"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sax"
)

type nopBytes struct{}

func (nopBytes) StartDocument()           {}
func (nopBytes) StartElementBytes([]byte) {}
func (nopBytes) TextBytes([]byte)         {}
func (nopBytes) EndElementBytes([]byte)   {}
func (nopBytes) EndDocument()             {}

// BenchmarkStreamDocuments cuts a protein-like stream of about 1 MiB into
// documents off a reader, next to one ByteScanner pass over the same
// stream held in memory.
func BenchmarkStreamDocuments(b *testing.B) {
	data := datagen.NewGenerator(datagen.ProteinLike(), 1).GenerateBytes(1 << 20)
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			if err := sax.StreamDocuments(bytes.NewReader(data), func([]byte) error { n++; return nil }); err != nil || n == 0 {
				b.Fatal(n, err)
			}
		}
	})
	b.Run("parse-bytes", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		var s sax.ByteScanner
		for i := 0; i < b.N; i++ {
			if err := s.Parse(data, nopBytes{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
