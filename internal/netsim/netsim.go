// Package netsim models the campus LAN that carries GPUnion's checkpoint
// backups and migration transfers.
//
// The paper's network-traffic analysis (§4) claims that incremental
// checkpointing keeps backup traffic below 2% of available campus
// bandwidth at peak. Reproducing that figure requires timing transfers
// against link capacities and accounting traffic per category over time
// windows — exactly what this package provides.
//
// Topology model: every node hangs off a campus backbone through an
// access link. A transfer from src to dst is limited by the slowest of
// src's uplink share, dst's downlink share, and the flow's share of the
// backbone. The share a flow receives is computed once, when the flow
// starts, from the number of flows then active on each resource; it stays
// fixed for the flow's lifetime. This start-time fair-share approximation
// keeps the discrete-event simulation O(1) per flow while capturing the
// first-order effect (concurrent backups slow each other down).
package netsim

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Bandwidth is a link capacity in bits per second.
type Bandwidth float64

// Gbps is the common campus link rate unit.
const Gbps Bandwidth = 1e9

// Category classifies traffic for the accounting used by the §4 analysis.
type Category string

// Traffic categories.
const (
	TrafficCheckpoint Category = "checkpoint" // periodic incremental backups
	TrafficMigration  Category = "migration"  // checkpoint restore on a new node
)

// Errors returned by the network.
var (
	ErrUnknownNode = errors.New("netsim: unknown node")
	ErrFlowDone    = errors.New("netsim: flow already finished")
)

// NodeLink describes one node's attachment to the campus backbone.
type NodeLink struct {
	// Name identifies the node.
	Name string
	// Access is the access-link capacity (both directions).
	Access Bandwidth
	// Latency is the one-way latency from the node to the backbone.
	Latency time.Duration
}

// Network is the campus LAN. It is safe for concurrent use.
type Network struct {
	mu       sync.Mutex
	backbone Bandwidth
	nodes    map[string]*nodeState
	active   int // flows currently crossing the backbone
	acct     *Accountant
	nextFlow int
}

type nodeState struct {
	link NodeLink
	up   int // active flows leaving this node
	down int // active flows entering this node
}

// New creates a network with the given backbone capacity.
func New(backbone Bandwidth) *Network {
	return &Network{
		backbone: backbone,
		nodes:    make(map[string]*nodeState),
		acct:     NewAccountant(),
	}
}

// Backbone returns the backbone capacity.
func (n *Network) Backbone() Bandwidth { return n.backbone }

// Accountant returns the network's traffic accountant.
func (n *Network) Accountant() *Accountant { return n.acct }

// AddNode attaches a node to the backbone. Re-adding a name replaces its
// link parameters.
func (n *Network) AddNode(link NodeLink) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s, ok := n.nodes[link.Name]; ok {
		s.link = link
		return
	}
	n.nodes[link.Name] = &nodeState{link: link}
}

// Flow is an in-progress transfer.
type Flow struct {
	ID       string
	Src, Dst string
	Bytes    int64
	Category Category
	// Rate is the fixed fair-share rate assigned at start.
	Rate Bandwidth
	// Latency is the end-to-end path latency (src + dst access latency).
	Latency time.Duration
	// Started is the start timestamp supplied by the caller.
	Started time.Time

	net  *Network
	done bool
}

// Duration returns the transfer's total time: path latency plus
// serialisation at the assigned rate.
func (f *Flow) Duration() time.Duration {
	if f.Rate <= 0 {
		return f.Latency
	}
	secs := float64(f.Bytes*8) / float64(f.Rate)
	return f.Latency + time.Duration(secs*float64(time.Second))
}

// StartFlow begins a transfer of size bytes from src to dst at time now.
// The returned flow has a fixed rate computed from current contention.
// The caller must call FinishFlow when the transfer's Duration has
// elapsed (the DES schedules this as an event).
func (n *Network) StartFlow(src, dst string, bytes int64, cat Category, now time.Time) (*Flow, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.nodes[src]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, src)
	}
	d, ok := n.nodes[dst]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, dst)
	}
	if bytes < 0 {
		bytes = 0
	}

	s.up++
	d.down++
	n.active++
	n.nextFlow++

	rate := minBandwidth(
		s.link.Access/Bandwidth(s.up),
		d.link.Access/Bandwidth(d.down),
		n.backbone/Bandwidth(n.active),
	)
	f := &Flow{
		ID:       fmt.Sprintf("flow-%d", n.nextFlow),
		Src:      src,
		Dst:      dst,
		Bytes:    bytes,
		Category: cat,
		Rate:     rate,
		Latency:  s.link.Latency + d.link.Latency,
		Started:  now,
		net:      n,
	}
	return f, nil
}

// FinishFlow completes the flow at time now, releasing its share and
// recording the transferred bytes with the accountant.
func (n *Network) FinishFlow(f *Flow, now time.Time) error {
	n.mu.Lock()
	if f.done {
		n.mu.Unlock()
		return ErrFlowDone
	}
	f.done = true
	if s, ok := n.nodes[f.Src]; ok && s.up > 0 {
		s.up--
	}
	if d, ok := n.nodes[f.Dst]; ok && d.down > 0 {
		d.down--
	}
	if n.active > 0 {
		n.active--
	}
	n.mu.Unlock()
	n.acct.Record(f.Started, now, f.Category, f.Bytes)
	return nil
}

// Transfer is the convenience path for callers that do not interleave
// flows: it starts a flow at now, computes its duration, finishes it, and
// returns the completion time.
func (n *Network) Transfer(src, dst string, bytes int64, cat Category, now time.Time) (time.Time, error) {
	f, err := n.StartFlow(src, dst, bytes, cat, now)
	if err != nil {
		return time.Time{}, err
	}
	end := now.Add(f.Duration())
	if err := n.FinishFlow(f, end); err != nil {
		return time.Time{}, err
	}
	return end, nil
}

func minBandwidth(bs ...Bandwidth) Bandwidth {
	m := bs[0]
	for _, b := range bs[1:] {
		if b < m {
			m = b
		}
	}
	return m
}

// record is one completed transfer in the accounting log.
type record struct {
	start, end time.Time
	cat        Category
	bytes      int64
}

// Accountant tracks completed transfers and answers the utilization
// questions in the paper's §4 traffic analysis.
type Accountant struct {
	mu      sync.Mutex
	records []record
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant {
	return &Accountant{}
}

// Record logs a completed transfer spanning [start, end].
func (a *Accountant) Record(start, end time.Time, cat Category, bytes int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.records = append(a.records, record{start: start, end: end, cat: cat, bytes: bytes})
}

// TotalBytes sums all recorded bytes for the category ("" = all).
func (a *Accountant) TotalBytes(cat Category) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var sum int64
	for _, r := range a.records {
		if cat == "" || r.cat == cat {
			sum += r.bytes
		}
	}
	return sum
}

// BytesInWindow returns the bytes of the category transferred within
// [from, to): each transfer contributes the fraction of its bytes whose
// transmission interval overlaps the window.
func (a *Accountant) BytesInWindow(cat Category, from, to time.Time) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var sum float64
	for _, r := range a.records {
		if cat != "" && r.cat != cat {
			continue
		}
		sum += overlapBytes(r, from, to)
	}
	return int64(sum)
}

func overlapBytes(r record, from, to time.Time) float64 {
	span := r.end.Sub(r.start)
	if span <= 0 {
		// Instantaneous transfer: counts fully if it lands in the window.
		if !r.start.Before(from) && r.start.Before(to) {
			return float64(r.bytes)
		}
		return 0
	}
	s := maxTime(r.start, from)
	e := minTime(r.end, to)
	if !e.After(s) {
		return 0
	}
	return float64(r.bytes) * float64(e.Sub(s)) / float64(span)
}

// WindowUtilization returns the category's share of the given capacity
// over [from, to): bytes·8 / (capacity · window).
func (a *Accountant) WindowUtilization(cat Category, capacity Bandwidth, from, to time.Time) float64 {
	window := to.Sub(from).Seconds()
	if window <= 0 || capacity <= 0 {
		return 0
	}
	bits := float64(a.BytesInWindow(cat, from, to)) * 8
	return bits / (float64(capacity) * window)
}

// PeakWindowUtilization slides a window of the given size across the
// recorded span in steps of step and returns the maximum utilization of
// the category against capacity. It returns 0 when nothing is recorded.
func (a *Accountant) PeakWindowUtilization(cat Category, capacity Bandwidth, window, step time.Duration) float64 {
	a.mu.Lock()
	if len(a.records) == 0 {
		a.mu.Unlock()
		return 0
	}
	lo := a.records[0].start
	hi := a.records[0].end
	for _, r := range a.records[1:] {
		if r.start.Before(lo) {
			lo = r.start
		}
		if r.end.After(hi) {
			hi = r.end
		}
	}
	a.mu.Unlock()

	if step <= 0 {
		step = window
	}
	peak := 0.0
	for t := lo; t.Before(hi); t = t.Add(step) {
		u := a.WindowUtilization(cat, capacity, t, t.Add(window))
		if u > peak {
			peak = u
		}
	}
	return peak
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
