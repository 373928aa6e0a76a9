package server_test

import (
	"testing"
	"time"

	"github.com/irsgo/irs/internal/wire"
	"github.com/irsgo/irs/server"
)

// frameStub answers every Backend call at once with a fixed success, so
// FuzzServeFrame exercises the dispatcher alone.
type frameStub struct{}

func (frameStub) SampleAppendAsync(_ string, dst []float64, lo, _ float64, t int, stats *server.SampleStats, done server.SampleReply) error {
	if stats != nil {
		stats.N, stats.Mass = 1, 1
	}
	for range min(max(t, 0), 4) {
		dst = append(dst, lo)
	}
	done.Deliver(dst, nil)
	return nil
}

func (frameStub) InsertAsync(_ string, items []server.Item, done server.InsertReply) error {
	done.Deliver(len(items), nil)
	return nil
}

func (frameStub) Delete(_ string, keys []float64) (int, error)      { return len(keys), nil }
func (frameStub) Update(_ string, items []server.Item) (int, error) { return len(items), nil }
func (frameStub) RangeStats(string, float64, float64) (int, float64, error) {
	return 1, 1, nil
}
func (frameStub) Resolve(name string) (string, error)          { return name, nil }
func (frameStub) Snapshot(string) (server.SnapshotInfo, error) { return server.SnapshotInfo{}, nil }
func (frameStub) Stats() server.Stats                          { return server.Stats{} }
func (frameStub) AppendMetrics(dst []byte) []byte              { return dst }
func (frameStub) Close() error                                 { return nil }

// answers counts one frame's deliveries.
type answers chan error

func (a answers) Deliver(_ *[]byte, err error) { a <- err }

// FuzzServeFrame pins the dispatcher's contract over arbitrary bytes —
// unknown kinds, truncated frames, trailing bytes, byte soup: no input
// panics, and every frame is answered exactly once, either with success
// or with bad_request. The seeds are FuzzBinaryFrame's plus one well-formed
// frame of every kind.
func FuzzServeFrame(f *testing.F) {
	seed := func(b []byte, err error) {
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(wire.EncodeSampleRequest(nil, wire.SampleReq{Dataset: "events", Lo: 1, Hi: 2, T: 3}))
	seed(wire.EncodeSampleRequest(nil, wire.SampleReq{Dataset: "events", Lo: -1, Hi: 9, T: 1024, Stats: true}))
	seed(wire.EncodeInsertRequest(nil, wire.InsertReq{Dataset: "w", Keys: []float64{1, 2}, Items: []wire.Item{{Key: 3, Weight: 4}}}))
	seed(wire.EncodeSampleStatsResponse(nil, 7, 2.5, []float64{1, 2, 3}), nil)
	seed([]byte{}, nil)
	seed([]byte{0x01}, nil)
	seed([]byte{0x02, 0xff, 0xff, 0xff, 0xff}, nil)
	seed(wire.EncodeDeleteRequest(nil, wire.DeleteReq{Dataset: "d", Keys: []float64{1}}))
	seed(wire.EncodeUpdateRequest(nil, wire.UpdateReq{Dataset: "w", Items: []wire.Item{{Key: 1, Weight: 2}}}))
	seed(wire.EncodeStatsRequest(nil), nil)
	seed(wire.EncodeRangeStatsRequest(nil, wire.RangeStatsReq{Dataset: "d", Lo: 0, Hi: 1}))
	seed([]byte{0x08}, nil)

	s := server.NewProxy(frameStub{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		done := make(answers, 2)
		out := new([]byte)
		s.ServeFrame(frame, out, done)
		select {
		case err := <-done:
			if code, _ := wire.ErrCode(err); err != nil && code != "bad_request" {
				t.Fatalf("frame %x answered %v (%s), want success or bad_request", frame, err, code)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %x never answered", frame)
		}
		select {
		case err := <-done:
			t.Fatalf("frame %x answered twice (second: %v)", frame, err)
		default:
		}
	})
}
