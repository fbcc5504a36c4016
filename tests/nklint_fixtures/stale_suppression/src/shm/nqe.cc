// Fixture: NqeOpName switch — every enumerator named, no default.
#include "src/shm/nqe.h"
std::string NqeOpName(NqeOp op) {
  switch (op) {
    case NqeOp::kInvalid: return "invalid";
    case NqeOp::kSend: return "send";
    case NqeOp::kBind: return "bind";
    case NqeOp::kOpResult: return "op_result";
    case NqeOp::kSendResult: return "send_result";
    case NqeOp::kRecvData: return "recv_data";
  }
  return "unknown";
}
