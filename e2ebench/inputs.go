package main

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/rand"

	"repro/internal/batch"
	"repro/internal/workload"
)

// profiles are the benign replay profiles, cycled across a fleet's devices.
var profiles = []string{"hm", "src", "usr"}

// arenaBytes sizes the seeded random arena page payloads are cut from. A
// page's random prefix is the next window of the arena, so pages within
// DEFLATE's 32 KiB window never share bytes: each keeps its profile's
// compressibility and is unique.
const arenaBytes = 8 << 20

// content produces page payloads with one profile's compressibility: a
// random prefix of RandomFrac of the page, then the generator's
// low-entropy text. The first 16 bytes stamp the device and a counter,
// so no two pages are equal.
type content struct {
	arena    []byte
	template []byte // generator page: only the low-entropy tail is used
	cut      int    // random prefix length
	dev      uint64
	n        uint64 // pages produced
}

func newArena(rng *rand.Rand) []byte {
	a := make([]byte, arenaBytes)
	rng.Read(a)
	return a
}

func newContent(arena []byte, prof workload.Profile, dev uint64, logical uint64, seed int64) *content {
	g := workload.NewGenerator(prof, pageSize, logical, seed)
	cut := int(prof.RandomFrac * pageSize)
	if cut < 16 {
		cut = 16
	}
	// Devices start at different arena windows.
	return &content{arena: arena, template: g.Content(), cut: cut, dev: dev, n: dev * 997}
}

// page writes the next page payload into dst (len pageSize).
func (c *content) page(dst []byte) {
	span := len(c.arena) - c.cut
	off := int(c.n*uint64(c.cut)) % span
	copy(dst[:c.cut], c.arena[off:])
	copy(dst[c.cut:], c.template[c.cut:])
	binary.LittleEndian.PutUint64(dst[0:], c.dev)
	binary.LittleEndian.PutUint64(dst[8:], c.n)
	c.n++
}

// replaySteps turns a profile replay into closed-loop steps: one
// SubmitBatch per trace record until writePages pages are written, then
// OffloadNow. Write payloads are filled at submit time from c.
func replaySteps(prof workload.Profile, logical uint64, seed int64, writePages int) []step {
	g := workload.NewGenerator(prof, pageSize, logical, seed)
	var steps []step
	for written := 0; written < writePages; {
		rec := g.Next()
		var ops []batch.Op
		writes := rec.Op == workload.OpWrite
		for p := 0; p < rec.Pages; p++ {
			lpn := rec.LPN + uint64(p)
			if lpn >= logical {
				break
			}
			switch rec.Op {
			case workload.OpWrite:
				ops = append(ops, batch.Op{Kind: batch.OpWrite, LPN: lpn})
				written++
			case workload.OpRead:
				ops = append(ops, batch.Op{Kind: batch.OpRead, LPN: lpn})
			case workload.OpTrim:
				ops = append(ops, batch.Op{Kind: batch.OpTrim, LPN: lpn})
			}
		}
		if len(ops) > 0 {
			steps = append(steps, step{ops: ops, writes: writes})
		}
	}
	return append(steps, step{})
}

// fillWrites gives every write op in ops the next payload from c, laid
// out in the device's scratch buffer.
func fillWrites(c *content) func(d *device, ops []batch.Op) {
	return func(d *device, ops []batch.Op) {
		if need := len(ops) * pageSize; len(d.buf) < need {
			d.buf = make([]byte, need)
		}
		for i := range ops {
			if ops[i].Kind != batch.OpWrite {
				continue
			}
			p := d.buf[i*pageSize : (i+1)*pageSize]
			c.page(p)
			ops[i].Data = p
		}
	}
}

// file is one corpus file: a contiguous LPN extent.
type file struct {
	lpn   uint64
	pages int
}

// corpus is one device's user data before the attack, and the ciphertext
// the encryptor will write over it.
type corpus struct {
	files  []file
	plain  []byte // file pages back to back, in file order
	cipher []byte // AES-256-CTR of plain, one stream per file
	pages  int
	end    uint64 // first LPN past the last file
}

// Corpus shape: files of 1..maxFilePages pages laid out from LPN 0 with
// small gaps until they cover half the device. The first half of the
// corpus, by pages, is a base image every device shares, built from a pool
// a quarter its size (so pages repeat within an image, like the duplicate
// blocks of an OS image); the second half is unique to the device.
const (
	maxFilePages = 16
	trimEvery    = 4 // every 4th file is deleted with trim after encryption
)

// baseImage is the shared half of every corpus: a page pool and the
// pool index of each base page.
type baseImage struct {
	pool [][]byte
	pick []int
}

func newBaseImage(rng *rand.Rand, pages int) *baseImage {
	b := &baseImage{pool: make([][]byte, pages/4+1), pick: make([]int, pages)}
	prof, _ := workload.ProfileByName("hm")
	c := newContent(newArena(rng), prof, 0, 1<<20, rng.Int63())
	for i := range b.pool {
		b.pool[i] = make([]byte, pageSize)
		c.page(b.pool[i])
	}
	for i := range b.pick {
		b.pick[i] = rng.Intn(len(b.pool))
	}
	return b
}

func newCorpus(rng *rand.Rand, base *baseImage, c *content, logical uint64, key [32]byte) *corpus {
	target := int(logical / 2)
	cp := &corpus{}
	lpn := uint64(0)
	for cp.pages < target {
		n := 1 + rng.Intn(maxFilePages)
		if cp.pages+n > target {
			n = target - cp.pages
		}
		cp.files = append(cp.files, file{lpn: lpn, pages: n})
		cp.pages += n
		lpn += uint64(n + rng.Intn(2))
	}
	cp.end = lpn
	cp.plain = make([]byte, cp.pages*pageSize)
	for i := 0; i < cp.pages; i++ {
		p := cp.plain[i*pageSize : (i+1)*pageSize]
		if i < len(base.pick) {
			copy(p, base.pool[base.pick[i]])
		} else {
			c.page(p)
		}
	}
	cp.cipher = make([]byte, len(cp.plain))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // fixed 32-byte key
	}
	off := 0
	for i, f := range cp.files {
		iv := make([]byte, aes.BlockSize)
		binary.LittleEndian.PutUint64(iv, uint64(i))
		n := f.pages * pageSize
		cipher.NewCTR(block, iv).XORKeyStream(cp.cipher[off:off+n], cp.plain[off:off+n])
		off += n
	}
	return cp
}

// fillSteps writes the rest of the device, past the corpus, with c's
// benign data in maxFilePages batches: the attack then runs on a full
// drive, so its overwrites force garbage collection of retained pages.
func (cp *corpus) fillSteps(c *content, logical uint64) []step {
	data := make([]byte, int(logical-cp.end)*pageSize)
	var steps []step
	off := 0
	for lpn := cp.end; lpn < logical; {
		var ops []batch.Op
		for ; lpn < logical && len(ops) < maxFilePages; lpn++ {
			p := data[off : off+pageSize]
			c.page(p)
			ops = append(ops, batch.Op{Kind: batch.OpWrite, LPN: lpn, Data: p})
			off += pageSize
		}
		steps = append(steps, step{ops: ops, writes: true})
	}
	return steps
}

// writeSteps writes the plaintext corpus, one batch per file.
func (cp *corpus) writeSteps() []step {
	var steps []step
	off := 0
	for _, f := range cp.files {
		ops := make([]batch.Op, f.pages)
		for p := range ops {
			ops[p] = batch.Op{Kind: batch.OpWrite, LPN: f.lpn + uint64(p), Data: cp.plain[off : off+pageSize]}
			off += pageSize
		}
		steps = append(steps, step{ops: ops, writes: true})
	}
	return steps
}

// attackSteps is the encryptor's I/O: per file, read it, overwrite it in
// place with ciphertext, and on every trimEvery-th file delete it with
// trim. It ends with OffloadNow.
func (cp *corpus) attackSteps() []step {
	var steps []step
	off := 0
	for i, f := range cp.files {
		reads := make([]batch.Op, f.pages)
		writes := make([]batch.Op, f.pages)
		for p := range reads {
			lpn := f.lpn + uint64(p)
			reads[p] = batch.Op{Kind: batch.OpRead, LPN: lpn}
			writes[p] = batch.Op{Kind: batch.OpWrite, LPN: lpn, Data: cp.cipher[off : off+pageSize]}
			off += pageSize
		}
		steps = append(steps, step{ops: reads}, step{ops: writes, writes: true})
		if i%trimEvery == 0 {
			trims := make([]batch.Op, f.pages)
			for p := range trims {
				trims[p] = batch.Op{Kind: batch.OpTrim, LPN: f.lpn + uint64(p)}
			}
			steps = append(steps, step{ops: trims})
		}
	}
	return append(steps, step{})
}

// want maps each corpus LPN to its pre-attack content.
func (cp *corpus) want() map[uint64][]byte {
	w := make(map[uint64][]byte, cp.pages)
	off := 0
	for _, f := range cp.files {
		for p := 0; p < f.pages; p++ {
			w[f.lpn+uint64(p)] = cp.plain[off : off+pageSize]
			off += pageSize
		}
	}
	return w
}
