// CI regression gate: compare metrics JSON emitted by `tcdm_run emit`
// against the recorded baselines/ documents. All logic
// lives in src/analytics/metrics_regression.* so it is unit-testable; this
// binary only forwards argv and the exit code.
//
//   ./check_regression baselines/table1.json out/table1.json
#include "src/analytics/metrics_regression.hpp"

int main(int argc, char** argv) { return tcdm::metrics::run_check_cli(argc, argv); }
