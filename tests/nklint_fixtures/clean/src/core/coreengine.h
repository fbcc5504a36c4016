// Fixture: control-plane ops and a registry-backed stats struct.
enum class CeOp : uint32_t {
  kAssignVmToNsm = 5,
  kOk = 100,
  kError = 101,
};

// nklint: stats
struct CoreEngineStats {
  uint64_t nqes_switched = 0;
  uint64_t nqes_dropped = 0;
};
