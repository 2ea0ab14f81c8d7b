#include "src/analytics/area_model.hpp"

#include "src/isa/instruction.hpp"

namespace tcdm {

namespace {
// Calibration constants (GE). Derivation: chosen so that the MP64Spatz4 GF4
// deltas land on the paper's published numbers (see header); held fixed for
// every other configuration so scaling trends are predictions, not fits.
constexpr double kSnitchGe = 30'000;        // RV32IM scalar core
constexpr double kFpuLaneGe = 150'000;      // fp32 FMA lane incl. operand routing
constexpr double kVrfGePerBit = 10.0;       // flop-based VRF
constexpr double kSpatzMiscGe = 60'000;     // decoder, VIQ, chaining control
constexpr double kVlsuPortCtrlGe = 11'000;  // address gen + port control, per port
constexpr double kRobEntryGe = 740;         // per ROB entry (data + tag + ordering)
constexpr double kIcnReqBaseGe = 16'000;    // tile request mux/demux
constexpr double kIcnReqPerClassGe = 2'600; // per master/slave port pair
// Response-channel logic scales with the beat width (32*GF data + ~40 bits
// of tag/routing); 0.62 ratio calibrated to +51% at GF4.
constexpr double kIcnRspRatio = 0.62;
constexpr double kBankCtrlGe = 2'000;       // per-bank request/response logic
constexpr double kBurstSenderBaseGe = 6'000;
constexpr double kBurstSenderPerPortGe = 800;
constexpr double kBurstMgrBaseGe = 6'000;
constexpr double kBurstMgrPerGfGe = 2'048;  // merge buffers + wide mux per GF
}  // namespace

AreaBreakdown estimate_area(const ClusterConfig& cfg) {
  AreaBreakdown a;
  a.config = cfg.name;
  const double n = cfg.num_cores();
  const unsigned classes = cfg.topology().num_classes();
  const unsigned gf = cfg.burst_enabled ? cfg.grouping_factor : 1;

  a.snitch = n * kSnitchGe;
  a.spatz_fpu = n * cfg.vlsu_ports * kFpuLaneGe;
  a.spatz_vrf = n * cfg.vlen_bits * kNumVRegs * kVrfGePerBit;
  a.spatz_misc = n * kSpatzMiscGe;
  a.vlsu = n * cfg.vlsu_ports * (kVlsuPortCtrlGe + kRobEntryGe * cfg.rob_depth);

  const double req = kIcnReqBaseGe + kIcnReqPerClassGe * classes;
  const double rsp = kIcnRspRatio * req * (32.0 * gf + 40.0) / 72.0;
  a.interconnect = n * (req + rsp);

  if (cfg.burst_enabled) {
    a.burst = n * (kBurstSenderBaseGe + kBurstSenderPerPortGe * cfg.vlsu_ports +
                   kBurstMgrBaseGe + kBurstMgrPerGfGe * gf);
  }
  a.banks_logic = static_cast<double>(cfg.num_banks()) * kBankCtrlGe;
  return a;
}

double area_overhead(const AreaBreakdown& base, const AreaBreakdown& ext) {
  return ext.total() / base.total() - 1.0;
}

}  // namespace tcdm
