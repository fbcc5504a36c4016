// Fixture: routing mentions, error-completion unwinding, metric registration.
#include "src/core/coreengine.h"

bool CoreEngineShard::BuildErrorCompletion(const Nqe& orig, Delivery* out) {
  NqeOp completion_op;
  switch (orig.Op()) {
    case NqeOp::kSend:
      completion_op = NqeOp::kSendResult;
      break;
    case NqeOp::kBind:
      completion_op = NqeOp::kOpResult;
      break;
    // nklint-allow(switch-default): completions hold no reclaimable state.
    default:
      return false;
  }
  Synthesize(completion_op, out);
  return true;
}

void CoreEngineShard::RouteNsmNqe(const Nqe& nqe) {
  if (nqe.Op() == NqeOp::kRecvData) AccountReceiveBytes(nqe);
  recorder_.Record(FlightEventType::kDrop, nqe.vm_id);
}

void Host::BuildMetricsRegistry(MetricsRegistry* registry) {
  registry->RegisterCounter(p + "nqes_switched", source);
  registry->RegisterCounter(p + "nqes_dropped", source);
}
