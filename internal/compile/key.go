package compile

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"unsafe"
)

// Key identifies one compiled artifact: the hash of the source text plus
// the exact pipeline configuration. Two compiles with the same Key produce
// identical machine programs, so their Results are interchangeable.
type Key struct {
	SrcHash [sha256.Size]byte
	Cfg     Config
}

// KeyOf computes the cache key for a compilation request. The file name
// participates in the hash because it appears in diagnostics and debug
// positions.
func KeyOf(name, src string, cfg Config) Key {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	// Hashed in place: a conversion would copy the whole source, and
	// Write only reads its argument.
	h.Write(unsafe.Slice(unsafe.StringData(src), len(src)))
	var k Key
	h.Sum(k.SrcHash[:0])
	k.Cfg = cfg
	return k
}

// ID renders the key as a short stable identifier (for logs, protocol
// artifact handles, and disk-tier filenames).
func (k Key) ID() string {
	// Fold the config into the printable id so the same source compiled
	// under two configurations yields two distinct handles. The config is
	// written as the spill header writes it.
	sum := sha256.Sum256(binary.AppendUvarint(k.SrcHash[:], configBits(k.Cfg)))
	return hex.EncodeToString(sum[:6])
}
