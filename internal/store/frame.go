package store

import (
	"bytes"
	"hash/crc32"
	"strconv"
)

// A log frame is one checksummed line of an append-only log:
//
//	kind|flag|crc32hex|payload\n
//
// kind names the record type and holds no '|'; flag is one byte of
// per-record state; payload is the record's JSON, kept verbatim — JSON
// never emits a raw newline, so it cannot break the line framing. The
// CRC-32 (IEEE) covers kind|flag|payload and is written in lowercase hex
// without leading zeros. The frame is built by hand so a record is
// marshalled once, not wrapped in a second JSON document. The store WAL
// (kind = table, flag = op) and the ingest journal (kind = event kind,
// flag = deferred) both write it.

// AppendFrame appends the frame of one record, newline included, to dst.
func AppendFrame(dst []byte, kind string, flag byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, kind...)
	dst = append(dst, '|', flag, '|')
	crc := crc32.Update(crc32.ChecksumIEEE(dst[start:]), crc32.IEEETable, payload)
	dst = strconv.AppendUint(dst, uint64(crc), 16)
	dst = append(dst, '|')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// ParseFrame splits one frame and verifies its checksum; the trailing
// newline is optional. ok is false for a malformed line or a checksum
// mismatch — exactly the lines AppendFrame did not write. kind and
// payload alias line.
func ParseFrame(line []byte) (kind []byte, flag byte, payload []byte, ok bool) {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	k := bytes.IndexByte(line, '|')
	if k < 0 || len(line) < k+4 || line[k+2] != '|' {
		return nil, 0, nil, false
	}
	rest := line[k+3:]
	c := bytes.IndexByte(rest, '|')
	if c < 0 {
		return nil, 0, nil, false
	}
	payload = rest[c+1:]
	crc := crc32.Update(crc32.ChecksumIEEE(line[:k+3]), crc32.IEEETable, payload)
	var hex [8]byte
	if !bytes.Equal(rest[:c], strconv.AppendUint(hex[:0], uint64(crc), 16)) {
		return nil, 0, nil, false
	}
	return line[:k], line[k+1], payload, true
}
