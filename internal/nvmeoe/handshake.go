package nvmeoe

import (
	"bufio"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// The handshake authenticates both ends with a pre-shared key provisioned
// into the SSD controller at manufacturing/enrollment time (the paper's
// trust anchor: the firmware and its embedded secrets are the TCB). It is
// a simple challenge–response:
//
//	device -> server: HELLO  { deviceID, nonceC }
//	server -> device: ACK    { nonceS, HMAC(psk, "srv"|deviceID|nonceC|nonceS) }
//	device -> server: CONFIRM{ HMAC(psk, "dev"|deviceID|nonceC|nonceS) }
//
// after which both sides derive direction-separated AES-256-GCM keys bound
// to the nonces. A host-resident attacker without the PSK can
// neither impersonate the device (to poison the remote log) nor the server
// (to black-hole offloads while acking them).

const nonceSize = 16

var (
	// ErrHandshake is returned when the peer fails authentication.
	ErrHandshake = errors.New("nvmeoe: handshake authentication failed")
)

func authTag(psk []byte, label string, deviceID uint64, nonceC, nonceS []byte) []byte {
	mac := hmac.New(sha256.New, psk)
	mac.Write([]byte(label))
	var id [8]byte
	binary.LittleEndian.PutUint64(id[:], deviceID)
	mac.Write(id[:])
	mac.Write(nonceC)
	mac.Write(nonceS)
	return mac.Sum(nil)
}

func newSessionConn(nc net.Conn, psk []byte, nonceC, nonceS []byte, isDevice bool) (*Conn, error) {
	c2s, err := newHalfConn(deriveKey(psk, nonceC, nonceS, dirDeviceToServer+"-enc"))
	if err != nil {
		return nil, err
	}
	s2c, err := newHalfConn(deriveKey(psk, nonceC, nonceS, dirServerToDevice+"-enc"))
	if err != nil {
		return nil, err
	}
	c := &Conn{nc: nc, br: bufio.NewReaderSize(nc, 1<<16), out: c2s, in: s2c}
	if !isDevice {
		c.out, c.in = s2c, c2s
	}
	return c, nil
}

// DeviceHandshake runs the device side of the handshake over nc and
// returns an authenticated session.
func DeviceHandshake(nc net.Conn, psk []byte, deviceID uint64) (*Conn, error) {
	nonceC := make([]byte, nonceSize)
	if _, err := rand.Read(nonceC); err != nil {
		return nil, err
	}
	hello := make([]byte, 8+nonceSize)
	binary.LittleEndian.PutUint64(hello, deviceID)
	copy(hello[8:], nonceC)
	if err := writeRaw(nc, hello); err != nil {
		return nil, err
	}
	ack, err := readRaw(nc, nonceSize+sha256.Size)
	if err != nil {
		return nil, err
	}
	nonceS, srvTag := ack[:nonceSize], ack[nonceSize:]
	if !hmac.Equal(srvTag, authTag(psk, "srv", deviceID, nonceC, nonceS)) {
		return nil, fmt.Errorf("%w: server tag invalid", ErrHandshake)
	}
	if err := writeRaw(nc, authTag(psk, "dev", deviceID, nonceC, nonceS)); err != nil {
		return nil, err
	}
	return newSessionConn(nc, psk, nonceC, nonceS, true)
}

// ServerHandshake runs the server side, returning the session and the
// authenticated device ID. lookupPSK maps a device ID to its enrolled key,
// so one server can serve many devices.
func ServerHandshake(nc net.Conn, lookupPSK func(deviceID uint64) ([]byte, bool)) (*Conn, uint64, error) {
	hello, err := readRaw(nc, 8+nonceSize)
	if err != nil {
		return nil, 0, err
	}
	deviceID := binary.LittleEndian.Uint64(hello)
	nonceC := hello[8:]
	psk, ok := lookupPSK(deviceID)
	if !ok {
		return nil, 0, fmt.Errorf("%w: unknown device %d", ErrHandshake, deviceID)
	}
	nonceS := make([]byte, nonceSize)
	if _, err := rand.Read(nonceS); err != nil {
		return nil, 0, err
	}
	ack := append(append([]byte(nil), nonceS...), authTag(psk, "srv", deviceID, nonceC, nonceS)...)
	if err := writeRaw(nc, ack); err != nil {
		return nil, 0, err
	}
	devTag, err := readRaw(nc, sha256.Size)
	if err != nil {
		return nil, 0, err
	}
	if !hmac.Equal(devTag, authTag(psk, "dev", deviceID, nonceC, nonceS)) {
		return nil, 0, fmt.Errorf("%w: device tag invalid", ErrHandshake)
	}
	c, err := newSessionConn(nc, psk, nonceC, nonceS, false)
	if err != nil {
		return nil, 0, err
	}
	return c, deviceID, nil
}

// writeRaw sends a length-prefixed plaintext handshake record.
func writeRaw(nc net.Conn, p []byte) error {
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(p)))
	if _, err := nc.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := nc.Write(p)
	return err
}

// readRaw receives a length-prefixed handshake record and checks its size.
func readRaw(nc net.Conn, want int) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(nc, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if int(n) != want {
		return nil, fmt.Errorf("%w: record size %d, want %d", ErrHandshake, n, want)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(nc, p); err != nil {
		return nil, err
	}
	return p, nil
}
