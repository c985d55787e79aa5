// The many-flow driver over a StarTestbed. FlowSpec, RunWorkload and their
// result types live in src/core/rpc_benchmark.h, beside the paper's
// one-flow benchmark that RunWorkload generalizes; StarTestbed implements
// the WorkloadHosts interface the driver runs on.

#ifndef SRC_WORKLOAD_FLOW_DRIVER_H_
#define SRC_WORKLOAD_FLOW_DRIVER_H_

#include "src/core/rpc_benchmark.h"
#include "src/workload/star_testbed.h"

#endif  // SRC_WORKLOAD_FLOW_DRIVER_H_
