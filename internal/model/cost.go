package model

import "time"

// CostModel captures the GPU-side timing and memory behaviour of a served
// model. The defaults are calibrated to public Llama-13B / A100-80GB
// figures. The model is
//
//	stepTime(batch) = KernelOverhead
//	                + Σ_calls (PerSequence + PerToken · newTokens(call))
//
// which captures the two regimes that matter for serving: decode is
// memory-bandwidth-bound (per-step cost nearly flat in batch size, so
// batching multiplies aggregate throughput) while prefill is compute-bound
// (cost linear in token count).
type CostModel struct {
	// KernelOverhead is the fixed cost of launching one batched forward
	// pass, dominated by reading the model weights from HBM.
	KernelOverhead time.Duration
	// PerSequence is the marginal cost of one extra sequence in a step.
	PerSequence time.Duration
	// PerToken is the marginal compute cost of one prompt token.
	PerToken time.Duration
	// KVBytesPerToken is the KV-cache footprint of one token.
	KVBytesPerToken int64
	// HostTransferBytesPerSec is the effective PCIe bandwidth used when
	// offloading KV pages between GPU and host memory (§4.3).
	HostTransferBytesPerSec int64
	// DiskReadBytesPerSec and DiskWriteBytesPerSec are the effective
	// bandwidths of the durable disk KV tier (internal/kvstore), and
	// DiskLatency the per-operation latency floor every disk I/O pays.
	// Zero bandwidth makes the corresponding transfer free, matching
	// HostTransferBytesPerSec's convention.
	DiskReadBytesPerSec  int64
	DiskWriteBytesPerSec int64
	DiskLatency          time.Duration
	// MaxBatchTokens bounds the new tokens a single step may process; the
	// scheduler splits larger batches.
	MaxBatchTokens int
}

// A100Llama13B returns the cost model for Llama-13B fp16 on one A100-80GB:
// ~45 tok/s single-stream decode, ~3.4k tok/s prefill, 0.8 MB KV per token.
func A100Llama13B() CostModel {
	return CostModel{
		KernelOverhead:          20 * time.Millisecond,
		PerSequence:             300 * time.Microsecond,
		PerToken:                280 * time.Microsecond,
		KVBytesPerToken:         800 << 10, // 2·40 layers·5120 dim·2B
		HostTransferBytesPerSec: 20 << 30,  // effective PCIe gen4
		DiskReadBytesPerSec:     6 << 30,   // NVMe gen4 sequential read
		DiskWriteBytesPerSec:    3 << 30,   // NVMe gen4 sustained write
		DiskLatency:             100 * time.Microsecond,
		MaxBatchTokens:          8192,
	}
}

// A100Llama1B returns the cost model for a ~1B-parameter draft model:
// roughly an order of magnitude cheaper per step and per token.
func A100Llama1B() CostModel {
	return CostModel{
		KernelOverhead:          2 * time.Millisecond,
		PerSequence:             50 * time.Microsecond,
		PerToken:                30 * time.Microsecond,
		KVBytesPerToken:         64 << 10,
		HostTransferBytesPerSec: 20 << 30,
		DiskReadBytesPerSec:     6 << 30,
		DiskWriteBytesPerSec:    3 << 30,
		DiskLatency:             100 * time.Microsecond,
		MaxBatchTokens:          16384,
	}
}

// BatchCall describes one pred call's contribution to a batched step.
type BatchCall struct {
	NewTokens int
}

// StepTime returns the virtual time one batched forward pass takes.
func (c CostModel) StepTime(calls []BatchCall) time.Duration {
	t := c.KernelOverhead
	for _, call := range calls {
		t += c.PerSequence + time.Duration(call.NewTokens)*c.PerToken
	}
	return t
}

// TransferTime returns the virtual time to move n KV tokens across PCIe.
func (c CostModel) TransferTime(tokens int) time.Duration {
	if c.HostTransferBytesPerSec <= 0 {
		return 0
	}
	bytes := int64(tokens) * c.KVBytesPerToken
	return time.Duration(float64(bytes) / float64(c.HostTransferBytesPerSec) * float64(time.Second))
}

// KVBytes returns the KV-cache footprint of n tokens.
func (c CostModel) KVBytes(tokens int) int64 {
	return int64(tokens) * c.KVBytesPerToken
}

// DiskReadTime returns the virtual time to read n bytes from the disk KV
// tier: the per-operation latency floor plus the bandwidth-limited
// transfer. Zero bandwidth means the tier is not modelled; reads are free.
func (c CostModel) DiskReadTime(bytes int64) time.Duration {
	if c.DiskReadBytesPerSec <= 0 {
		return 0
	}
	return c.DiskLatency + time.Duration(float64(bytes)/float64(c.DiskReadBytesPerSec)*float64(time.Second))
}

// DiskLoadTime returns the virtual time to load n KV tokens from the disk
// tier onto the GPU: an NVMe read of their bytes plus the PCIe transfer.
func (c CostModel) DiskLoadTime(tokens int) time.Duration {
	return c.DiskReadTime(c.KVBytes(tokens)) + c.TransferTime(tokens)
}

// DiskWriteTime is DiskReadTime for the write direction.
func (c CostModel) DiskWriteTime(bytes int64) time.Duration {
	if c.DiskWriteBytesPerSec <= 0 {
		return 0
	}
	return c.DiskLatency + time.Duration(float64(bytes)/float64(c.DiskWriteBytesPerSec)*float64(time.Second))
}
