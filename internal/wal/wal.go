// Package wal is GPUnion's durability layer: an append-only,
// group-committed write-ahead log of the system database's typed
// mutation records, plus an asynchronous snapshotter that checkpoints
// the store in the background and truncates the log.
//
// Layout of a WAL directory:
//
//	snapshot.json   latest checkpoint (atomically replaced via rename)
//	wal-%08d.log    log segments; a new segment starts on every boot
//	                and on every snapshot cut
//
// Each segment is a sequence of CRC-framed records:
//
//	[uint32 payload length][uint32 CRC-32C of payload][payload JSON]
//
// (little-endian header). A crash can tear the tail of the last frame a
// process was writing; the reader detects this — short header, short
// payload, length out of range, CRC mismatch, undecodable JSON — and
// recovers every record up to the tear, never failing the whole log.
// Torn records were never acknowledged (acknowledgement follows fsync),
// so dropping them is correct, not lossy.
//
// Recovery = load snapshot.json (a fuzzy, table-by-table checkpoint
// with an LSN watermark) + replay all logged records above the
// watermark in LSN order through the store's idempotent Apply. See
// db.State for why the fuzzy snapshot plus idempotent replay converges.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gpunion/internal/db"
)

// castagnoli is the CRC-32C table (the polynomial storage systems use;
// hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the fixed per-record framing overhead.
const frameHeaderSize = 8

// maxRecordSize bounds one record's payload; a corrupt length field
// larger than this is classified as a torn tail instead of driving a
// giant allocation.
const maxRecordSize = 64 << 20

// appendFrame encodes one payload as a length+CRC framed record.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// appendRecord frames one mutation record onto buf.
func appendRecord(buf []byte, m db.Mutation) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("wal: encoding record: %w", err)
	}
	return appendFrame(buf, payload), nil
}

// decodeFrames parses framed records from a segment's bytes. It returns
// the decoded records and whether the segment ends in a torn tail
// (anything from a clean EOF mismatch to a CRC failure); records before
// the tear are always returned.
func decodeFrames(data []byte) (recs []db.Mutation, torn bool) {
	recs, _, torn = decodeFramesConsumed(data)
	return recs, torn
}

// decodeFramesConsumed is decodeFrames plus the byte length of the
// complete frames decoded — the cursor advance an incremental reader
// (the Shipper) needs: a torn tail's bytes are not consumed, so the
// next read retries them once the writer has finished (or healed past)
// the frame.
func decodeFramesConsumed(data []byte) (recs []db.Mutation, consumed int, torn bool) {
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeaderSize {
			return recs, off, true
		}
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > maxRecordSize || length > len(data)-off-frameHeaderSize {
			return recs, off, true
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+length]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, off, true
		}
		var m db.Mutation
		if err := json.Unmarshal(payload, &m); err != nil {
			return recs, off, true
		}
		recs = append(recs, m)
		off += frameHeaderSize + length
	}
	return recs, off, false
}

// segmentPrefix and segmentSuffix bracket the zero-padded segment index.
const (
	segmentPrefix = "wal-"
	segmentSuffix = ".log"
)

// segmentName returns the file name of segment i.
func segmentName(i int) string {
	return fmt.Sprintf("%s%08d%s", segmentPrefix, i, segmentSuffix)
}

// segmentIndexes lists the indexes of the WAL segments present in dir,
// ascending. Unparseable names are ignored.
func segmentIndexes(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var idx []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		var i int
		if _, err := fmt.Sscanf(name, segmentPrefix+"%d"+segmentSuffix, &i); err == nil {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	return idx, nil
}

// ReadStats summarizes one ReadAll pass.
type ReadStats struct {
	// Segments is how many log segments were read.
	Segments int
	// Records is how many intact records were decoded.
	Records int
	// TornTails counts segments that ended in a torn or corrupt frame
	// (normal after a crash; the records before the tear are kept).
	TornTails int
}

// ReadAll decodes every intact record from every segment in dir, in
// segment order. Torn tails are tolerated per segment: a record that
// was mid-write when the process died was never acknowledged, and a
// fresh segment is started on every boot, so records in later segments
// are still valid after an earlier segment's tear.
func ReadAll(dir string) ([]db.Mutation, ReadStats, error) {
	var (
		out   []db.Mutation
		stats ReadStats
	)
	idx, err := segmentIndexes(dir)
	if err != nil {
		return nil, stats, err
	}
	for _, i := range idx {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(i)))
		if err != nil {
			return nil, stats, fmt.Errorf("wal: reading segment %d: %w", i, err)
		}
		recs, torn := decodeFrames(data)
		stats.Segments++
		stats.Records += len(recs)
		if torn {
			stats.TornTails++
		}
		out = append(out, recs...)
	}
	return out, stats, nil
}
