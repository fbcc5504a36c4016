// Fixture: NSM-side dispatch switch — fully enumerated, no default.
#include "src/shm/nqe.h"
void ServiceLib::Dispatch(const Nqe& nqe) {
  switch (nqe.Op()) {
    case NqeOp::kSend:
      DoSend(nqe);
      break;
    case NqeOp::kBind:
      DoBind(nqe);
      break;
    case NqeOp::kInvalid:
    case NqeOp::kOpResult:
    case NqeOp::kSendResult:
    case NqeOp::kRecvData:
      break;
  }
}
