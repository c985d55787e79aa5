// Ablation A4 — the paper's own opening question (§1): "How have the
// changes in technology affected the results of earlier studies?" Scales
// the host CPU (every calibrated software cost divided by a speedup factor)
// while the network stays 1994-fast, and re-asks the paper's headline
// questions at each point: what does the checksum cost, does header
// prediction matter, how big is the scheduling share?

#include <array>
#include <cstdio>
#include <vector>

#include "bench/bench_flags.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"
#include "src/exec/executor.h"

namespace tcplat {
namespace {

CostParams Scale(const CostParams& p, double f) {
  return CostParams{p.fixed_us / f, p.per_byte_us / f, p.per_chunk_us / f};
}

CostProfile ScaledProfile(double f) {
  CostProfile p = CostProfile::Decstation5000_200();
  for (CostParams* param :
       {&p.ultrix_cksum, &p.opt_cksum, &p.user_bcopy, &p.integrated_copy_cksum, &p.in_cksum,
        &p.kernel_bcopy, &p.copyin_small, &p.copyin_cluster, &p.copyout_small,
        &p.copyout_cluster, &p.mbuf_alloc, &p.mbuf_free, &p.cluster_ref, &p.m_copym_fixed,
        &p.m_copym_per_mbuf, &p.syscall_entry, &p.syscall_exit, &p.sosend_fixed,
        &p.sosend_per_chunk, &p.soreceive_fixed, &p.sbappend, &p.tcp_output_fixed,
        &p.tcp_copydata_small, &p.tcp_input_slow, &p.tcp_input_fast, &p.tcp_ack_proc,
        &p.pcb_lookup, &p.pcb_cache_check, &p.sorwakeup, &p.pseudo_hdr_cksum, &p.udp_output,
        &p.udp_input, &p.ip_output, &p.ip_input, &p.ipq_enqueue, &p.softint_dispatch,
        &p.wakeup_ctx_switch, &p.intr_entry, &p.atm_tx_fixed, &p.atm_tx_per_cell,
        &p.atm_rx_fixed, &p.atm_rx_per_cell, &p.copyin_small_cksum, &p.copyin_cluster_cksum,
        &p.atm_rx_per_cell_cksum, &p.cksum_combine, &p.combined_cksum_tx_overhead,
        &p.combined_cksum_rx_overhead, &p.ether_tx, &p.ether_rx}) {
    *param = Scale(*param, f);
  }
  return p;
}

double Rtt(const CostProfile& prof, ChecksumMode mode, size_t size) {
  TestbedConfig cfg;
  cfg.profile = prof;
  cfg.tcp.checksum = mode;
  Testbed tb(cfg);
  RpcOptions opt;
  opt.size = size;
  return RunRpcBenchmark(tb, opt).MeanRtt().micros();
}

void Run() {
  std::printf("Ablation A4: scale the CPU, keep the 1994 network (8000-byte echoes)\n\n");
  TextTable t({"CPU speedup", "RTT (us)", "Checksum-elim saving", "4B RTT (us)",
               "4B wire+sched floor (%)"});
  const std::array<double, 5> factors = {1.0, 2.0, 4.0, 10.0, 100.0};
  struct Row {
    double rtt;
    double rtt_none;
    double rtt4;
    double floor4;
  };
  const std::vector<Row> rows = ParallelMap<Row>(factors.size(), [&factors](size_t i) {
    const CostProfile prof = ScaledProfile(factors[i]);
    // The irreducible part of a 4-byte RTT: wire time + propagation, which
    // the CPU speedup cannot touch. Approximate it with an infinitely fast
    // CPU's RTT.
    return Row{Rtt(prof, ChecksumMode::kStandard, 8000), Rtt(prof, ChecksumMode::kNone, 8000),
               Rtt(prof, ChecksumMode::kStandard, 4),
               Rtt(ScaledProfile(1e6), ChecksumMode::kStandard, 4)};
  });
  for (size_t i = 0; i < factors.size(); ++i) {
    const auto& [rtt, rtt_none, rtt4, floor4] = rows[i];
    t.AddRow({TextTable::Num(factors[i], 0) + "x", TextTable::Us(rtt),
              TextTable::Pct(100.0 * (rtt - rtt_none) / rtt, 1), TextTable::Us(rtt4),
              TextTable::Pct(100.0 * floor4 / rtt4, 1)});
  }
  t.Print();
  std::printf(
      "\nReadings: the checksum-elimination saving *shrinks* as CPUs outpace the\n"
      "network (the data-touching share of the RTT falls), while the 4-byte\n"
      "round trip converges on the wire+propagation floor — software\n"
      "optimizations of the kind the paper studies mattered most exactly when\n"
      "it was written, and a 100x-faster CPU on the same fiber leaves latency\n"
      "dominated by the network itself.\n");
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags, "")) return 2;
  tcplat::Run();
  return 0;
}
