// Tests for timers, work accounting, machine models, and the network model.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <chrono>

#include "perf/counters.hpp"
#include "perf/machine_model.hpp"
#include "perf/network_model.hpp"
#include "perf/timer.hpp"

namespace memxct::perf {
namespace {

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  // Busy-wait until the steady clock must have advanced at least one tick.
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() == start) {
  }
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_GT(t.milliseconds(), 0.0);
}

TEST(Stopwatch, AccumulatesLaps) {
  Stopwatch sw;
  sw.start();
  sw.stop();
  sw.start();
  sw.stop();
  EXPECT_EQ(sw.laps(), 2);
  EXPECT_GE(sw.total_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(sw.mean_seconds() * 2, sw.total_seconds());
  sw.clear();
  EXPECT_EQ(sw.laps(), 0);
}

TEST(KernelWork, GflopsAndBandwidth) {
  KernelWork w;
  w.nnz = 1'000'000;
  EXPECT_DOUBLE_EQ(w.flops(), 2e6);
  EXPECT_DOUBLE_EQ(w.gflops(0.001), 2.0);
  // Baseline: 8 B per FMA (4 B index + 4 B value defaults).
  EXPECT_DOUBLE_EQ(w.bytes_per_fma(), RegularBytes::kBaseline);
  EXPECT_DOUBLE_EQ(w.regular_bytes(), 8e6);
  w.index_bytes_per_fma = 2.0;  // buffered: 16-bit buffer indices
  w.staged_words = 100'000;
  EXPECT_DOUBLE_EQ(w.bytes_per_fma(), RegularBytes::kBuffered);
  EXPECT_DOUBLE_EQ(w.regular_bytes(), 6e6 + 8e5);
}

TEST(KernelWork, CompressedWidthsLowerTraffic) {
  KernelWork w;
  w.nnz = 1'000'000;
  w.staged_words = 100'000;
  w.value_bytes_per_fma = 2.0;   // bf16 storage
  w.index_bytes_per_fma = 1.25;  // a fractional (averaged) index cost
  w.staged_index_bytes = 1.5;    // a fractional (averaged) map cost
  EXPECT_DOUBLE_EQ(w.bytes_per_fma(), 3.25);
  EXPECT_DOUBLE_EQ(w.regular_bytes(), 3.25e6 + 1e5 * 5.5);
  // Matrix stream and map reads amortize across k lanes; gathers do not.
  EXPECT_DOUBLE_EQ(w.regular_bytes_at_width(4),
                   (3.25e6 + 1.5e5) / 4.0 + 4e5);
}

TEST(MachineModel, Table2MachinesPresent) {
  const auto& machines = table2_machines();
  ASSERT_GE(machines.size(), 5u);
  EXPECT_EQ(machine("Theta").device, DeviceKind::KNL);
  EXPECT_EQ(machine("Theta").nodes, 4392);
  EXPECT_DOUBLE_EQ(machine("Theta").mem_bw_gbs, 400.0);
  EXPECT_EQ(machine("BlueWaters").device, DeviceKind::K20X);
  EXPECT_EQ(machine("DGX-1").devices_per_node, 8);
  EXPECT_DOUBLE_EQ(machine("DGX-1").mem_bw_gbs, 900.0);
  EXPECT_THROW((void)machine("Summit"), InvalidArgument);
}

TEST(MachineModel, EfficienciesAreSaneFractions) {
  for (const auto device : {DeviceKind::KNL, DeviceKind::K80, DeviceKind::P100,
                            DeviceKind::V100, DeviceKind::HostCPU}) {
    for (const auto level :
         {OptLevel::Baseline, OptLevel::HilbertOrdered,
          OptLevel::MultiStageBuffered}) {
      const double e = bandwidth_efficiency(device, level);
      EXPECT_GT(e, 0.0);
      EXPECT_LE(e, 1.0);
    }
    // Optimizations never lower stream efficiency below baseline.
    EXPECT_GE(bandwidth_efficiency(device, OptLevel::HilbertOrdered),
              bandwidth_efficiency(device, OptLevel::Baseline));
  }
}

TEST(MachineModel, LatencyPenaltyDecreasesWithMissRate) {
  EXPECT_DOUBLE_EQ(latency_penalty(DeviceKind::KNL, 0.0), 1.0);
  EXPECT_LT(latency_penalty(DeviceKind::KNL, 0.5),
            latency_penalty(DeviceKind::KNL, 0.1));
  // GPUs hide latency better than KNL (Section 4.2.1's observation).
  EXPECT_GT(latency_penalty(DeviceKind::V100, 0.5),
            latency_penalty(DeviceKind::KNL, 0.5));
}

TEST(MachineModel, ModeledKernelTimeOrderings) {
  KernelWork w;
  w.nnz = 100'000'000;
  const double v100 = modeled_kernel_seconds(
      machine("DGX-1"), w, OptLevel::HilbertOrdered, true);
  const double k20x = modeled_kernel_seconds(
      machine("BlueWaters"), w, OptLevel::HilbertOrdered, true);
  EXPECT_LT(v100, k20x);  // faster memory wins
  // Spilling out of MCDRAM slows KNL down.
  const double mcdram = modeled_kernel_seconds(machine("Theta"), w,
                                               OptLevel::HilbertOrdered, true);
  const double ddr = modeled_kernel_seconds(machine("Theta"), w,
                                            OptLevel::HilbertOrdered, false);
  EXPECT_LT(mcdram, ddr);
  // Baseline with high miss rate is slower than ordered.
  const double base = modeled_kernel_seconds(machine("Theta"), w,
                                             OptLevel::Baseline, true, 0.5);
  EXPECT_GT(base, mcdram);
}

TEST(NetworkModel, AlltoallvScalesWithBytesAndMessages) {
  const auto& theta = machine("Theta");
  CommStats small{1000, 1000, 4, 4};
  CommStats big{1'000'000'000, 1'000'000'000, 4, 4};
  CommStats many{1000, 1000, 4000, 4000};
  EXPECT_LT(alltoallv_seconds(theta, small), alltoallv_seconds(theta, big));
  EXPECT_LT(alltoallv_seconds(theta, small), alltoallv_seconds(theta, many));
}

TEST(NetworkModel, AllreduceGrowsWithLogRanks) {
  const auto& theta = machine("Theta");
  EXPECT_DOUBLE_EQ(allreduce_seconds(theta, 1 << 20, 1), 0.0);
  const double p2 = allreduce_seconds(theta, 1 << 20, 2);
  const double p16 = allreduce_seconds(theta, 1 << 20, 16);
  const double p1024 = allreduce_seconds(theta, 1 << 20, 1024);
  EXPECT_LT(p2, p16);
  EXPECT_LT(p16, p1024);
  // Latency term grows with log2(P): 1024 ranks = 10 rounds vs 4 rounds.
  EXPECT_GT(p1024 - p16, 5.0 * theta.net_latency_s);
}

TEST(CommStats, Accumulation) {
  CommStats a{10, 20, 1, 2};
  const CommStats b{5, 5, 1, 1};
  a += b;
  EXPECT_EQ(a.bytes_sent, 15);
  EXPECT_EQ(a.bytes_received, 25);
  EXPECT_EQ(a.messages_sent, 2);
  EXPECT_EQ(a.messages_received, 3);
}

}  // namespace
}  // namespace memxct::perf
