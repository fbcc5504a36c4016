// Fixture: nkguard admission tables — every annotated op appears here, so
// the guard-coverage check finds the contract fully mirrored.
#include "src/shm/nqe.h"
bool IsSendRingOp(NqeOp op) { return op == NqeOp::kSend; }
bool IsJobRingOp(NqeOp op) { return op == NqeOp::kBind; }
bool IsNsmToGuestOp(NqeOp op) {
  return op == NqeOp::kOpResult || op == NqeOp::kSendResult || op == NqeOp::kRecvData;
}
