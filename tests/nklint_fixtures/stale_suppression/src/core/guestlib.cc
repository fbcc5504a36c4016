// Fixture: guest-side reap switch — fully enumerated, no default, yet still
// carrying the allow its old default arm needed.
#include "src/shm/nqe.h"
// nklint-allow(switch-default): kept after the default arm below was removed.
void GuestLib::ApplyInbound(const Nqe& nqe) {
  switch (nqe.Op()) {
    case NqeOp::kOpResult:
      ReapControl(nqe);
      break;
    case NqeOp::kSendResult:
      ReapSend(nqe);
      break;
    case NqeOp::kRecvData:
      ReapPayload(nqe);
      break;
    case NqeOp::kInvalid:
    case NqeOp::kSend:
    case NqeOp::kBind:
      break;
  }
}
