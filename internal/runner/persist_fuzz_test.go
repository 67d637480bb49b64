package runner

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes, as a corrupt or foreign
// store record would present them, to every persisted-record decoder:
// job results, batch snapshots and both kinds of side record.  No
// decoder may panic or return a value beside its error, and every
// record a decoder accepts must re-encode to bytes that decode to an
// equal value: encoding what was read is a fixed point.
//
//	go test -run '^$' -fuzz '^FuzzDecodeRecord$' -fuzztime 30s ./internal/runner/
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecoder(t, "job", b, decodeResult, encodeResult)
		checkDecoder(t, "batch", b, decodeBatch, func(p *persistedBatch) ([]byte, error) {
			return encodeBatch(p.ID, p.Specs, p.Status)
		})
		for _, kind := range []string{kindTimeline, kindSampled} {
			checkDecoder(t, kind, b, func(b []byte) (*persistedSide, error) { return decodeSide(b, kind) },
				func(p *persistedSide) ([]byte, error) {
					_, b, err := encodeSide(sideResult(p))
					return b, err
				})
		}
	})
}

// checkDecoder decodes b and, if the decoder accepts it, checks that
// the value re-encodes to bytes whose decoding encodes identically.
func checkDecoder[T any](t *testing.T, kind string, b []byte, decode func([]byte) (*T, error), encode func(*T) ([]byte, error)) {
	t.Helper()
	v, err := decode(b)
	if err != nil {
		if v != nil {
			t.Fatalf("%s: decoder returned a value beside its error %v", kind, err)
		}
		return
	}
	b1, err := encode(v)
	if err != nil {
		t.Fatalf("%s: accepted record does not re-encode: %v", kind, err)
	}
	v2, err := decode(b1)
	if err != nil {
		t.Fatalf("%s: re-encoded record %s does not decode: %v", kind, b1, err)
	}
	b2, err := encode(v2)
	if err != nil {
		t.Fatalf("%s: decoded re-encoding does not encode: %v", kind, err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("%s: round trip changed the value:\n%s\n%s", kind, b1, b2)
	}
}
