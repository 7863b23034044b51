package netem

import (
	"math"
	"testing"
	"time"
)

// TestTxTimeGolden pins serialization times to exact ⌊size·1e9/rate⌋ values
// so figure results cannot drift. The r=3125000/size=3 row is the class of
// input where the previous float64 formula landed 1 ns low (double rounding:
// 3/3125000*1e9 → 959.999…); the integer math is exact.
func TestTxTimeGolden(t *testing.T) {
	cases := []struct {
		rate Rate
		size int
		want time.Duration
	}{
		{rate: 125000, size: 40, want: 320000},     // 1 Mbps, pure ACK
		{rate: 125000, size: 1500, want: 12000000}, // 1 Mbps, full data packet
		{rate: 1000000, size: 40, want: 40000},     // 1 MBps
		{rate: 1000000, size: 1460, want: 1460000}, // 1 MBps, MSS payload
		{rate: 1000000, size: 1500, want: 1500000}, //
		{rate: 3125000, size: 3, want: 960},        // float formula gave 959
		{rate: 3125000, size: 1500, want: 480000},  // 25 Mbps
		{rate: 687500, size: 1500, want: 2181818},  // 5.5 Mbps 802.11b
		{rate: 687500, size: 40, want: 58181},      //
		{rate: 250000, size: 1000, want: 4000000},  // 2 Mbps
		{rate: 125, size: 1, want: 8000000},        // 1 kbps
		{rate: 1, size: 1, want: 1000000000},       // degenerate 1 B/s
		{rate: 0, size: 1500, want: 0},             // no rate: instantaneous
		{rate: -5, size: 1500, want: 0},            //
		{rate: 1000, size: 0, want: 0},             // nothing to send
		{rate: 1000, size: -1, want: 0},            //
	}
	for _, tt := range cases {
		if got := tt.rate.txTime(tt.size); got != tt.want {
			t.Errorf("Rate(%d).txTime(%d) = %d, want %d", tt.rate, tt.size, got, tt.want)
		}
	}
}

// TestTxTimeOverflowGuard exercises the absurd-size fallback.
func TestTxTimeOverflowGuard(t *testing.T) {
	huge := int(math.MaxInt64/int64(time.Second)) + 1
	got := Rate(1 * MBps).txTime(huge)
	if got <= 0 {
		t.Errorf("txTime(%d) = %d, want positive", huge, got)
	}
}

// TestRateStringGolden pins the strconv-based formatting to the exact
// strings the old fmt.Sprintf("%.1fKBps") produced.
func TestRateStringGolden(t *testing.T) {
	cases := []struct {
		rate Rate
		want string
	}{
		{0, "0.0KBps"},
		{500, "0.5KBps"},
		{1000, "1.0KBps"},
		{125000, "125.0KBps"},
		{687500, "687.5KBps"},
		{1 * MBps, "1000.0KBps"},
		{Kbps(56), "7.0KBps"},
		{Mbps(11), "1375.0KBps"},
		{-1000, "-1.0KBps"},
	}
	for _, tt := range cases {
		if got := tt.rate.String(); got != tt.want {
			t.Errorf("Rate(%d).String() = %q, want %q", tt.rate, got, tt.want)
		}
	}
}

// TestAddrStringGolden pins the strconv-based IP/Addr formatting.
func TestAddrStringGolden(t *testing.T) {
	if got := IP(0x01020304).String(); got != "1.2.3.4" {
		t.Errorf("IP.String() = %q", got)
	}
	if got := IP(0).String(); got != "0.0.0.0" {
		t.Errorf("IP(0).String() = %q", got)
	}
	if got := IP(0xFFFFFFFF).String(); got != "255.255.255.255" {
		t.Errorf("IP(max).String() = %q", got)
	}
	if got := (Addr{IP: 0x0A000001, Port: 6881}).String(); got != "10.0.0.1:6881" {
		t.Errorf("Addr.String() = %q", got)
	}
}
