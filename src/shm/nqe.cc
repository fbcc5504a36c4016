// Copyright (c) NetKernel reproduction authors.

#include "src/shm/nqe.h"

namespace netkernel::shm {

std::string NqeOpName(NqeOp op) {
  switch (op) {
    case NqeOp::kInvalid: return "invalid";
    case NqeOp::kSocket: return "socket";
    case NqeOp::kBind: return "bind";
    case NqeOp::kListen: return "listen";
    case NqeOp::kConnect: return "connect";
    case NqeOp::kAccept: return "accept";
    case NqeOp::kClose: return "close";
    case NqeOp::kSend: return "send";
    case NqeOp::kSendZc: return "send_zc";
    case NqeOp::kSendZcComplete: return "send_zc_complete";
    case NqeOp::kSendToZc: return "sendto_zc";
    case NqeOp::kSocketUdp: return "socket_udp";
    case NqeOp::kBindUdp: return "bind_udp";
    case NqeOp::kSendTo: return "sendto";
    case NqeOp::kRecvFrom: return "recvfrom";
    case NqeOp::kOpResult: return "op_result";
    case NqeOp::kConnectResult: return "connect_result";
    case NqeOp::kAcceptedConn: return "accepted_conn";
    case NqeOp::kSendResult: return "send_result";
    case NqeOp::kRecvData: return "recv_data";
    case NqeOp::kFinReceived: return "fin_received";
    case NqeOp::kSendToResult: return "sendto_result";
    case NqeOp::kDgramRecv: return "dgram_recv";
    case NqeOp::kNsmRehomed: return "nsm_rehomed";
    case NqeOp::kHeartbeat: return "heartbeat";
  }
  return "unknown";
}

}  // namespace netkernel::shm
