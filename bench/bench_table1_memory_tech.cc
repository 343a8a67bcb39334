// Reproduces paper Table I: performance characteristics of memory
// technologies, alongside the parameters the simulator actually uses so a
// reader can verify the simulation assumptions against the cited sources.

#include <cstdio>

#include "src/nvm/latency_model.h"
#include "src/util/stats.h"

int main() {
  std::printf("=== Table I: memory technology comparison (as cited by the "
              "paper [10], [11]) ===\n");
  pnw::TablePrinter table(
      {"category", "read_latency", "write_latency", "write_endurance"});
  table.AddRow({"HDD", "5ms", "5ms", ">=10^15"});
  table.AddRow({"DRAM", "50-60ns", "50-60ns", ">=10^16"});
  table.AddRow({"PCM", "50-70ns", "120-150ns", "10^8-10^9"});
  table.AddRow({"ReRAM", "10ns", "50ns", "10^11"});
  table.AddRow({"SLC Flash", "25us", "500us", "10^4-10^5"});
  table.AddRow({"STT-RAM", "10-35ns", "50ns", ">=10^15"});
  table.Print();

  pnw::nvm::LatencyParams params;
  std::printf("\nSimulator defaults (per the paper's methodology: DRAM "
              "emulation, 3D-XPoint access latency per [41], [42]):\n");
  std::printf("  nvm_read_ns   = %.0f\n", params.nvm_read_ns);
  std::printf("  nvm_write_ns  = %.0f  (per dirtied cache line)\n",
              params.nvm_write_ns);
  return 0;
}
