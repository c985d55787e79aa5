// Host-speed calibration for the end-to-end run.
//
// The benchmark shares its machine, so the host's speed drifts between and
// within runs. Each repetition's host time is scaled by the time of this
// fixed loop, run just before and just after it, which cancels most of that
// drift.
// The loop is a fixed mix of the simulator's kinds of host work written
// without any of its code, so no change to the simulator can move it: a
// binary-heap event loop with heap-stored std::function callbacks, 53-byte
// buffer allocations and a byte-table CRC.

#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

namespace perfbench {

// Host seconds one pass of the calibration loop took (about 12 ms).
double CalibrateSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
