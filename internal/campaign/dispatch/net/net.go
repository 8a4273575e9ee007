// Package dnet carries the dispatch shard protocol over byte streams.
// It owns the length-prefixed JSON frame codec (WriteFrame /
// ReadFrame) and a framed connection, Conn, that the coordinator uses
// for every worker: over a network socket, or over a spawned child's
// pipes (Pipe). Conn adds an interior write lock so heartbeats can
// interleave with responses, per-frame read deadlines for dead-peer
// detection on sockets, TCP/TLS dial and listen helpers, and a Tap
// seam through which internal/campaign/chaos injects network faults
// (dropped, corrupted, delayed frames; connection resets) to prove
// the coordinator's recovery never changes campaign output.
//
// The package deliberately knows nothing about campaigns: frames are
// opaque JSON values, so both the dispatcher and the chaos harness can
// import it without cycles.
package dnet

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxFrame bounds a frame body so a corrupted length prefix cannot ask
// the reader to allocate unbounded memory (a detected data error, in
// the paper's terms, not a crash).
const MaxFrame = 256 << 20

// DefaultDialTimeout bounds one connection attempt.
const DefaultDialTimeout = 10 * time.Second

// WriteFrame marshals v and writes it as one length-prefixed frame.
// A *bufio.Writer is flushed so the frame is on the wire when the call
// returns.
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dispatch: marshaling frame: %w", err)
	}
	return writeBody(w, body)
}

// writeBody writes one length-prefixed frame body, flushing a
// *bufio.Writer.
func writeBody(w io.Writer, body []byte) error {
	var pre [4]byte
	binary.BigEndian.PutUint32(pre[:], uint32(len(body)))
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	if bw, ok := w.(*bufio.Writer); ok {
		return bw.Flush()
	}
	return nil
}

// ReadFrame reads one length-prefixed frame into v. io.EOF at a frame
// boundary is returned as-is (clean shutdown); anything else that cuts
// a frame short is an unexpected-EOF error.
func ReadFrame(r io.Reader, v any) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	return decode(body, v)
}

func decode(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("dispatch: decoding frame: %w", err)
	}
	return nil
}

// readBody reads one raw frame body (without decoding it).
func readBody(r io.Reader) ([]byte, error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("dispatch: reading frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(pre[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("dispatch: frame of %d bytes exceeds limit", n)
	}
	// The body grows as bytes arrive rather than being allocated from
	// the prefix up front: a corrupted prefix on a short stream costs
	// what the stream holds, not the MaxFrame the prefix may claim.
	var body bytes.Buffer
	body.Grow(int(min(n, 64<<10)))
	if _, err := io.CopyN(&body, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("dispatch: reading %d-byte frame: %w", n, err)
	}
	return body.Bytes(), nil
}

// Direction tells a Tap which way a frame is crossing the connection.
type Direction int

const (
	// Send frames leave this endpoint.
	Send Direction = iota
	// Recv frames arrive at this endpoint.
	Recv
)

func (d Direction) String() string {
	if d == Send {
		return "send"
	}
	return "recv"
}

// Action is a Tap's verdict on one frame. The zero value lets the
// frame pass untouched.
type Action struct {
	// Drop loses the frame: a send returns success without writing, a
	// receive discards the frame and reads the next one. The peer's
	// deadline or heartbeat machinery must recover.
	Drop bool
	// Corrupt flips bits in the frame body (the length prefix stays
	// intact), so decoding or the integrity hash fails downstream.
	Corrupt bool
	// Reset closes the underlying connection mid-frame, like a peer
	// crash or a network partition.
	Reset bool
	// Delay stalls the frame before it is written or delivered.
	Delay time.Duration
}

// Tap intercepts raw frames crossing a Conn, one call per frame with
// that direction's zero-based ordinal. Implementations must be safe
// for concurrent use: one Conn calls it from its reader and writer,
// and a coordinator shares one Tap across every worker connection.
type Tap interface {
	Frame(dir Direction, ordinal uint64) Action
}

// Stream is the byte stream a Conn frames: a net.Conn, or a Pipe.
type Stream interface {
	io.ReadWriteCloser
	SetReadDeadline(t time.Time) error
}

// Pipe joins a read half and a write half — a child process's stdout
// and stdin, or a worker's own stdin and stdout — into a Stream. Close
// closes the write half when it is closable, which a well-behaved peer
// reads as end of input. Pipes never half-fail the way sockets do, so
// read deadlines are accepted and ignored.
func Pipe(r io.Reader, w io.Writer) Stream { return pipe{r, w} }

type pipe struct {
	io.Reader
	io.Writer
}

func (p pipe) Close() error {
	if c, ok := p.Writer.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

func (pipe) SetReadDeadline(time.Time) error { return nil }

// Conn is one framed transport connection: WriteFrame/ReadFrame
// semantics over a byte stream — a net.Conn, or a child process's
// pipes — an interior write lock so concurrent writers (shard responses
// and heartbeat pings) interleave at frame granularity, an optional
// per-frame read deadline bounding peer silence, and an optional
// fault-injection Tap.
type Conn struct {
	raw Stream
	br  *bufio.Reader

	wmu     sync.Mutex
	bw      *bufio.Writer
	sendOrd uint64

	tap         Tap
	readTimeout time.Duration
	recvOrd     uint64 // single reader; no lock needed

	closeOnce sync.Once
	closeErr  error
}

// NewConn wraps an established connection. readTimeout, when positive,
// bounds the silence between frames: a peer that sends nothing for
// that long (no responses, no heartbeats) is declared dead and reads
// fail. Zero disables the deadline.
func NewConn(raw Stream, tap Tap, readTimeout time.Duration) *Conn {
	return &Conn{
		raw:         raw,
		br:          bufio.NewReader(raw),
		bw:          bufio.NewWriter(raw),
		tap:         tap,
		readTimeout: readTimeout,
	}
}

// WriteFrame sends one frame, applying the tap's verdict first. Safe
// for concurrent use.
func (c *Conn) WriteFrame(v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dispatch: marshaling frame: %w", err)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	body, drop, err := c.tapFrame(Send, &c.sendOrd, body)
	if err != nil || drop {
		return err
	}
	return writeBody(c.bw, body)
}

// ReadFrame reads the next delivered frame into v. Dropped frames are
// consumed and skipped; a read deadline overrun reports the peer as
// silent so callers can distinguish a dead connection from a slow
// shard.
func (c *Conn) ReadFrame(v any) error {
	for {
		if c.readTimeout > 0 {
			if err := c.raw.SetReadDeadline(time.Now().Add(c.readTimeout)); err != nil {
				return err
			}
		}
		body, err := readBody(c.br)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return fmt.Errorf("dispatch: peer silent for %s (missed heartbeats): %w", c.readTimeout, err)
			}
			return err
		}
		body, drop, err := c.tapFrame(Recv, &c.recvOrd, body)
		if err != nil {
			return err
		}
		if !drop {
			return decode(body, v)
		}
	}
}

// tapFrame applies the tap's verdict on one frame crossing in
// direction dir, advancing that direction's ordinal: it may delay the
// frame, corrupt its body, drop it, or reset the connection.
func (c *Conn) tapFrame(dir Direction, ord *uint64, body []byte) ([]byte, bool, error) {
	if c.tap == nil {
		return body, false, nil
	}
	act := c.tap.Frame(dir, *ord)
	*ord++
	if act.Delay > 0 {
		time.Sleep(act.Delay)
	}
	if act.Reset {
		c.raw.Close()
		return nil, false, fmt.Errorf("dispatch: connection reset (injected fault)")
	}
	if act.Corrupt {
		body = corruptBody(body)
	}
	return body, act.Drop, nil
}

// Close tears the connection down; safe to call more than once and
// from any goroutine (it is how peers unblock a pending ReadFrame).
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.raw.Close() })
	return c.closeErr
}

// RemoteAddr names a network peer for diagnostics (nil for streams
// that are not network connections).
func (c *Conn) RemoteAddr() net.Addr {
	if nc, ok := c.raw.(net.Conn); ok {
		return nc.RemoteAddr()
	}
	return nil
}

// corruptBody returns a copy of body with a few bits flipped, length
// preserved — the shape of corruption the integrity hash and JSON
// decoding are there to catch.
func corruptBody(body []byte) []byte {
	b := append([]byte(nil), body...)
	if len(b) == 0 {
		return b
	}
	b[0] ^= 0xa5
	b[len(b)/2] ^= 0x5a
	b[len(b)-1] ^= 0xa5
	return b
}

// Dial connects to a worker endpoint (TLS when tlsCfg is non-nil) and
// wraps it as a framed Conn.
func Dial(ctx context.Context, addr string, tlsCfg *tls.Config, tap Tap, readTimeout time.Duration) (*Conn, error) {
	d := &net.Dialer{Timeout: DefaultDialTimeout}
	var raw net.Conn
	var err error
	if tlsCfg != nil {
		raw, err = (&tls.Dialer{NetDialer: d, Config: tlsCfg}).DialContext(ctx, "tcp", addr)
	} else {
		raw, err = d.DialContext(ctx, "tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	return NewConn(raw, tap, readTimeout), nil
}

// Listen binds addr for incoming transport connections (TLS when
// tlsCfg is non-nil). Callers wrap accepted connections with NewConn.
func Listen(addr string, tlsCfg *tls.Config) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tlsCfg != nil {
		l = tls.NewListener(l, tlsCfg)
	}
	return l, nil
}
