package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mirabel/internal/comm"
)

// span is one timed call into a layer. Spans of one request share id:
// the intake call's endpoint/sequence key, node+cycle, or node+reopen.
type span struct {
	name       string
	id         string
	parent     int // index of the causing span; -1 when none is known yet
	start, end time.Duration
}

// tracer keeps spans in memory for the run; the summary and the dump
// are produced after the timed phase. A nil *tracer records nothing, so
// untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	seq   atomic.Uint64 // envelope sequence numbers stamped on the Bus

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record appends a finished span and returns its index.
func (t *tracer) record(name, id string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// reserve allocates a span whose children are recorded before it ends;
// finish fills it in.
func (t *tracer) reserve() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{parent: -1})
	return len(t.spans) - 1
}

func (t *tracer) finish(idx int, name, id string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx] = span{name: name, id: id, parent: -1, start: start.Sub(t.epoch), end: end.Sub(t.epoch)}
}

type parentKey struct{}

// withParent marks ctx so spans recorded below it (outbound deliveries
// of a cycle) name span idx as their parent.
func withParent(ctx context.Context, idx int) context.Context {
	return context.WithValue(ctx, parentKey{}, idx)
}

func parentOf(ctx context.Context) int {
	if idx, ok := ctx.Value(parentKey{}).(int); ok {
		return idx
	}
	return -1
}

type callKeySlot struct{}

// call times one intake request made through a callTransport and
// records it as the parent of the handler span with the same key.
func (t *tracer) call(ctx context.Context, name string, do func(ctx context.Context) error) error {
	if t == nil {
		return do(ctx)
	}
	var key string
	t0 := time.Now()
	err := do(context.WithValue(ctx, callKeySlot{}, &key))
	t.record(name, key, -1, t0, time.Now())
	return err
}

func envKey(from string, seq uint64) string { return from + "/" + strconv.FormatUint(seq, 10) }

// callTransport wraps an intake client's Bus transport to learn the
// envelope key the server-side middleware will see: it stamps a
// process-unique Seq, which the Bus passes through untouched.
type callTransport struct {
	comm.Transport
	t *tracer
}

func (c callTransport) Request(ctx context.Context, to string, env comm.Envelope) (comm.Envelope, error) {
	env.Seq = c.t.seq.Add(1)
	reply, err := c.Transport.Request(ctx, to, env)
	if slot, ok := ctx.Value(callKeySlot{}).(*string); ok {
		*slot = envKey(env.From, env.Seq)
	}
	return reply, err
}

// middleware is the core.Config.Middleware seam: one span per handled
// message, keyed like the intake call that sent it.
func (t *tracer) middleware() comm.Middleware {
	return func(next comm.Handler) comm.Handler {
		return func(ctx context.Context, env comm.Envelope) (*comm.Envelope, error) {
			t0 := time.Now()
			reply, err := next(ctx, env)
			t.record("core.handle."+string(env.Type), envKey(env.From, env.Seq), -1, t0, time.Now())
			return reply, err
		}
	}
}

// deliverTransport wraps a BRP's core.Config.Transport: one span per
// outbound ScheduleNotify, parented to the cycle that sent it.
type deliverTransport struct {
	comm.Transport
	t *tracer
}

func (d deliverTransport) Send(ctx context.Context, to string, env comm.Envelope) error {
	if env.Type != comm.MsgScheduleNotify {
		return d.Transport.Send(ctx, to, env)
	}
	t0 := time.Now()
	err := d.Transport.Send(ctx, to, env)
	d.t.record("comm.deliver", to, parentOf(ctx), t0, time.Now())
	return err
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	count     int
	selfTotal time.Duration
	self      []float64 // per-span self time in µs
	dur       []float64 // per-span duration in µs
}

// summarize links handler spans to their intake calls, computes every
// span's self time (its duration minus the part of it covered by its
// children) and aggregates by name.
func (t *tracer) summarize() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	calls := make(map[string]int)
	for i, s := range t.spans {
		if strings.HasPrefix(s.name, "comm.call.") && s.id != "" {
			calls[s.id] = i
		}
	}
	children := make(map[int][]int)
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent < 0 && strings.HasPrefix(s.name, "core.handle.") {
			if p, ok := calls[s.id]; ok {
				s.parent = p
			}
		}
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]*spanStats)
	for i, s := range t.spans {
		if s.name == "" {
			continue
		}
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		dur := s.end - s.start
		self := dur - covered(t.spans, s, children[i])
		st.count++
		st.selfTotal += self
		st.dur = append(st.dur, float64(dur)/1e3)
		st.self = append(st.self, float64(self)/1e3)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(spans []span, parent span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a < parent.start {
			a = parent.start
		}
		if b > parent.end {
			b = parent.end
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// callSelfP50 is the median self time (µs) of the intake calls of every
// message type: envelope encode and decode plus transport, once the
// handler span is taken out.
func callSelfP50(sum map[string]*spanStats) float64 {
	var xs []float64
	for name, st := range sum {
		if strings.HasPrefix(name, "comm.call.") {
			xs = append(xs, st.self...)
		}
	}
	return median(xs)
}

// printSummary writes the per-name span table.
func printSummary(w io.Writer, sum map[string]*spanStats) {
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %9s %12s %12s %12s\n", "span", "count", "p50 µs", "self p50 µs", "self total ms")
	for _, n := range names {
		st := sum[n]
		fmt.Fprintf(w, "%-36s %9d %12.1f %12.1f %12.1f\n", n, st.count, median(st.dur), median(st.self), ms(st.selfTotal))
	}
}

// dump writes every span as one tab-separated line: name, id, parent
// index, start and end in ns since the tracer's epoch.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\n", s.name, s.id, s.parent, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
