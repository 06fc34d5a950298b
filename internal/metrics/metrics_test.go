package metrics

import (
	"math"
	"testing"
)

func TestDeliveryAccounting(t *testing.T) {
	c := New()
	c.MessageCreated(1, 0)
	c.MessageCreated(2, 10)
	c.MessageCreated(3, 20)
	c.MessageRelayed()
	c.MessageRelayed()
	c.MessageRelayed()
	c.MessageRelayed()
	c.MessageDelivered(1, 100, 2)
	c.MessageDelivered(2, 110, 4)

	if c.Generated() != 3 || c.DeliveredCount() != 2 || c.Relays() != 4 {
		t.Fatalf("counts: gen=%d del=%d relay=%d", c.Generated(), c.DeliveredCount(), c.Relays())
	}
	if got := c.DeliveryRatio(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("DeliveryRatio = %g", got)
	}
	if got := c.AvgLatency(); got != 100 { // (100 + 100) / 2
		t.Errorf("AvgLatency = %g", got)
	}
	if got := c.Goodput(); got != 0.5 {
		t.Errorf("Goodput = %g", got)
	}
	if got := c.OverheadRatio(); got != 1 {
		t.Errorf("OverheadRatio = %g", got)
	}
	if got := c.AvgHops(); got != 3 {
		t.Errorf("AvgHops = %g", got)
	}
}

func TestEmptyCollectorSafeRatios(t *testing.T) {
	c := New()
	if c.DeliveryRatio() != 0 || c.AvgLatency() != 0 || c.Goodput() != 0 ||
		c.OverheadRatio() != 0 || c.AvgHops() != 0 || c.MedianLatency() != 0 {
		t.Error("empty collector ratios should all be 0")
	}
}

func TestMedianLatency(t *testing.T) {
	c := New()
	for i, lat := range []float64{50, 10, 40} {
		c.MessageCreated(i, 0)
		c.MessageDelivered(i, lat, 1)
	}
	if got := c.MedianLatency(); got != 40 {
		t.Errorf("MedianLatency odd = %g, want 40", got)
	}
	c.MessageCreated(9, 0)
	c.MessageDelivered(9, 20, 1)
	if got := c.MedianLatency(); got != 30 {
		t.Errorf("MedianLatency even = %g, want 30", got)
	}
}

func TestAuxCounters(t *testing.T) {
	c := New()
	c.MessageDropped()
	c.MessagesExpired(2)
	c.TransferAborted()
	c.MessageRefused()
	c.ContactStarted()
	s := c.Summary()
	if s.Drops != 1 || s.Expired != 2 || s.Aborts != 1 || s.Contacts != 1 {
		t.Errorf("summary = %+v", s)
	}
}

func TestMean(t *testing.T) {
	a := Summary{Generated: 10, Delivered: 4, Relays: 100, DeliveryRatio: 0.4, AvgLatency: 100, Goodput: 0.04}
	b := Summary{Generated: 12, Delivered: 8, Relays: 200, DeliveryRatio: 0.8, AvgLatency: 300, Goodput: 0.08}
	m := Mean([]Summary{a, b})
	if m.Generated != 11 || m.Delivered != 6 || m.Relays != 150 {
		t.Errorf("mean counts = %+v", m)
	}
	if math.Abs(m.DeliveryRatio-0.6) > 1e-12 || m.AvgLatency != 200 || math.Abs(m.Goodput-0.06) > 1e-12 {
		t.Errorf("mean ratios = %+v", m)
	}
	if got := Mean(nil); got != (Summary{}) {
		t.Error("Mean(nil) should be zero")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{DeliveryRatio: 0.5}
	if s.String() == "" {
		t.Error("empty String")
	}
}
