package wal

import (
	"testing"

	"gpunion/internal/db"
)

// fuzzSeedFrames builds the torn-tail fixture family the reader tests
// use: intact frames, truncations at every interesting boundary, CRC
// damage, and hostile length fields.
func fuzzSeedFrames(f *testing.F) {
	one := encodedF(f, nodeMut(1, "a"))
	two := encodedF(f, nodeMut(1, "a"), nodeMut(2, "b"))

	f.Add([]byte{})
	f.Add(one)
	f.Add(two)
	// Torn tails: the second record cut at the header, mid-header,
	// first payload byte, and one byte short of complete.
	f.Add(two[:len(one)+1])
	f.Add(two[:len(one)+frameHeaderSize-1])
	f.Add(two[:len(one)+frameHeaderSize+1])
	f.Add(two[:len(two)-1])
	// CRC damage on the last record.
	crc := append([]byte{}, two...)
	crc[len(crc)-1] ^= 0xFF
	f.Add(crc)
	// Hostile length field: claims more than maxRecordSize.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 'x'})
	// Trailing garbage behind a good record.
	f.Add(append(append([]byte{}, one...), 0xDE, 0xAD, 0xBE, 0xEF))
}

func encodedF(f *testing.F, muts ...db.Mutation) []byte {
	f.Helper()
	var buf []byte
	for _, m := range muts {
		frame, err := appendRecord(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		buf = append(buf, frame...)
	}
	return buf
}

// FuzzReaderFrame hammers the segment decoder with corrupt and
// truncated inputs. Properties:
//
//  1. decodeFrames never panics and never invents records from noise
//     that fails the CRC;
//  2. decoded records survive an encode/decode round trip;
//  3. prepending intact frames never loses them: whatever damage
//     follows, the good prefix always decodes (the torn-tail recovery
//     guarantee).
func FuzzReaderFrame(f *testing.F) {
	fuzzSeedFrames(f)
	goodPrefix := encodedF(f, nodeMut(101, "p1"), nodeMut(102, "p2"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, torn := decodeFrames(data)

		// Round-trip: every decoded record re-encodes and re-decodes
		// to the same LSN sequence, with no tear.
		var reenc []byte
		for _, m := range recs {
			frame, err := appendRecord(nil, m)
			if err != nil {
				t.Fatalf("decoded record does not re-encode: %v", err)
			}
			reenc = append(reenc, frame...)
		}
		again, tornAgain := decodeFrames(reenc)
		if tornAgain {
			t.Fatal("re-encoded stream reads as torn")
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip decoded %d of %d records", len(again), len(recs))
		}
		for i := range recs {
			if again[i].LSN != recs[i].LSN || again[i].Type != recs[i].Type {
				t.Fatalf("round trip diverged at %d: %+v vs %+v", i, recs[i], again[i])
			}
		}

		// A clean decode never yields more framed bytes than it read
		// (it may yield fewer: JSON decoding drops unknown fields a
		// hand-crafted valid-CRC payload could carry).
		if !torn && len(reenc) > len(data) {
			t.Fatalf("clean decode re-encodes to %d bytes from %d", len(reenc), len(data))
		}

		// Intact prefix is never lost, whatever follows it.
		recs2, _ := decodeFrames(append(append([]byte{}, goodPrefix...), data...))
		if len(recs2) < 2 || recs2[0].LSN != 101 || recs2[1].LSN != 102 {
			t.Fatalf("good prefix lost: decoded %d records", len(recs2))
		}
	})
}
