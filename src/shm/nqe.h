// Copyright (c) NetKernel reproduction authors.
// NetKernel Queue Element (NQE): the fixed 32-byte intermediate representation
// of socket semantics exchanged between GuestLib and ServiceLib (paper §4.2,
// Figure 3).
//
// Byte budget (32 bytes total, Figure 3):
//   8 B op_data | 8 B data pointer | 4 B VM socket ID | 4 B size |
//   1 B op type | 1 B VM ID | 1 B queue set ID | 5 B reserved
//
// `vm_sock` is the handle of the sock structure in the user VM (the paper
// stores a pointer; we store a 32-bit handle). `op_data` carries per-op
// payload such as the ip:port for bind/connect, result codes, or the NSM-side
// connection ID. `data_ptr` is an offset into the shared hugepage region and
// `size` the length of the data it points at.
//
// ---- nklint annotation grammar (this header is the source of truth) ----
// Every NqeOp enumerator carries a machine-readable contract annotation,
// either trailing the enumerator or on the comment line directly above it:
//
//   // nklint: dir=<guest->nsm|nsm->guest|control|none> [ring=<completion|receive>]
//   //         [guard=<send|job>] [carries-chunk] [completion=kOp] [reclaim=kOp]
//
//   dir            which way the op travels across the shared-memory device.
//   ring           the guest-facing ring that delivers it (nsm->guest only):
//                  `completion` retires a request, `receive` carries inbound
//                  payload/events.
//   guard          (guest->nsm only, required) the guest-writable ring that
//                  admits the op past nkguard: `send` or `job`. The
//                  guard-coverage check cross-references every annotated op
//                  against the admission tables in src/guard/ so the
//                  validator cannot silently fall out of sync with the
//                  contract.
//   carries-chunk  data_ptr references a hugepage chunk whose *ownership*
//                  crosses with the NQE (send payloads, zc receives).
//   completion     the nsm->guest op that answers this request; must exist
//                  and ride the completion ring.
//   reclaim        for carries-chunk requests: the completion CoreEngine
//                  synthesizes (with kNqeFlagChunkUnconsumed) when the op
//                  dies inside the switch, so the chunk and send credit
//                  always find their way home. Must appear in
//                  CoreEngineShard::BuildErrorCompletion.
//
// tools/nklint (ctest `nklint`, tier-1) cross-checks these annotations
// against the actual routing, dispatch, reap, and unwinding code, so a new
// op cannot land half-wired. Exceptions are suppressed — visibly and
// greppably — with `// nklint-allow(<check>): reason` on or directly above
// the flagged line. See README "Static analysis".

#ifndef SRC_SHM_NQE_H_
#define SRC_SHM_NQE_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace netkernel::shm {

enum class NqeOp : uint8_t {
  // nklint: dir=none
  kInvalid = 0,
  // VM -> NSM socket operations (job queue unless noted).
  // nklint: dir=guest->nsm guard=job completion=kOpResult
  kSocket = 1,
  // nklint: dir=guest->nsm guard=job completion=kOpResult
  kBind = 2,
  // nklint: dir=guest->nsm guard=job completion=kOpResult
  kListen = 3,
  // nklint: dir=guest->nsm guard=job completion=kConnectResult
  kConnect = 4,
  // nklint: dir=guest->nsm guard=job completion=kAcceptedConn
  kAccept = 5,  // pipelined: NSM replies as connections arrive
  // nklint: dir=guest->nsm guard=job completion=kOpResult
  kSetsockopt = 6,
  // nklint: dir=guest->nsm guard=job completion=kOpResult
  kGetsockopt = 7,
  // nklint: dir=guest->nsm guard=job completion=kOpResult
  kIoctl = 8,
  // nklint: dir=guest->nsm guard=job completion=kOpResult
  kShutdown = 9,
  // nklint: dir=guest->nsm guard=job
  kClose = 10,  // fire-and-forget: no guest thread waits on a close
  // nklint: dir=guest->nsm guard=send carries-chunk completion=kSendResult reclaim=kSendResult
  kSend = 11,  // send queue: data_ptr/size reference hugepage payload
  // Datagram (SOCK_DGRAM) operations: connectionless, so CoreEngine routes
  // them by socket key alone — no connection-table completion handshake.
  // nklint: dir=guest->nsm guard=job completion=kOpResult
  kSocketUdp = 12,  // job: create a UDP socket in the NSM
  // nklint: dir=guest->nsm guard=job completion=kOpResult
  kBindUdp = 13,    // job: bind ip:port carried in op_data
  // nklint: dir=guest->nsm guard=send carries-chunk completion=kSendToResult reclaim=kSendToResult
  kSendTo = 14,     // send queue: op_data = packed destination, payload in hugepages
  // nklint: dir=guest->nsm guard=job
  kRecvFrom = 15,   // job: datagram receive credit return (op_data = bytes freed)
  // Zero-copy send (registered-buffer datapath): the guest filled the chunk
  // in place and transfers ownership. The NSM's stack transmits (and
  // retransmits) directly from the chunk and frees it into the shared pool
  // only once the byte range is ACKed, answering with kSendZcComplete.
  // nklint: dir=guest->nsm guard=send carries-chunk completion=kSendZcComplete reclaim=kSendZcComplete
  kSendZc = 16,  // send queue: data_ptr/size reference the loaned chunk
  // Zero-copy datagram send: like kSendTo (op_data = packed destination) but
  // the guest filled the chunk in place and transfers ownership; the NSM's
  // UDP stack builds the wire datagram straight from the chunk and frees it
  // once the skb is committed, answering with kSendToResult (orig kSendToZc).
  // nklint: dir=guest->nsm guard=send carries-chunk completion=kSendToResult reclaim=kSendToResult
  kSendToZc = 17,  // send queue: data_ptr/size reference the loaned chunk
  // NSM -> VM results and events.
  // nklint: dir=nsm->guest ring=completion
  kOpResult = 32,       // completion queue: result of a control op
  // nklint: dir=nsm->guest ring=completion
  kConnectResult = 33,  // completion queue
  // nklint: dir=nsm->guest ring=completion
  kAcceptedConn = 34,   // completion queue: new connection, op_data = NSM conn id
  // nklint: dir=nsm->guest ring=completion
  kSendResult = 35,     // completion queue: buffer usage can be decreased
  // nklint: dir=nsm->guest ring=receive carries-chunk
  kRecvData = 36,       // receive queue: data_ptr/size reference received payload
  // nklint: dir=nsm->guest ring=receive
  kFinReceived = 37,    // receive queue: peer closed
  // nklint: dir=nsm->guest ring=completion
  kSendToResult = 38,   // completion queue: datagram sent, send credit returned
  // nklint: dir=nsm->guest ring=receive carries-chunk
  kDgramRecv = 39,      // receive queue: datagram payload; op_data = packed source
  // Zero-copy send completion: the kSendZc byte range was ACKed (or failed).
  // op_data = send-credit bytes to return; size = status (0 or negative
  // errno). The chunk was freed into the shared pool by the NSM — unless
  // reserved[1] carries kNqeFlagChunkUnconsumed (a CoreEngine-synthesized
  // error), in which case the guest still owns it and must free it.
  // nklint: dir=nsm->guest ring=completion
  kSendZcComplete = 40,  // completion queue
  // Zero-copy datagram receive: identical shape to kDgramRecv (op_data =
  // packed source, data_ptr/size = payload chunk) but the chunk was detached
  // from the UDP stack's receive queue — it never crossed a rcvbuf->hugepage
  // copy. Guests treat both alike; the distinct op keeps the fallback copy
  // path observable end to end.
  // nklint: dir=nsm->guest ring=receive carries-chunk
  kDgramRecvZc = 41,  // receive queue
  // Failover notification: the VM's NSM died (or was drained for a rolling
  // upgrade) and the VM was re-homed onto the standby NSM. vm_sock is 0 — the
  // event is per-VM, not per-socket. op_data carries the new NSM id. GuestLib
  // reacts by re-issuing socket/bind for every datagram socket so the standby
  // NSM rebuilds their state under the same guest handles; stream sockets were
  // already errored with FINs by the switch (see `reconnects_required`).
  // nklint: dir=nsm->guest ring=completion
  kNsmRehomed = 42,  // completion queue
  // Control plane (CoreEngine registration channel, §5). These reserve the
  // paper's wire numbers; the reproduction's control plane rides the typed
  // CeMessage channel (CoreEngine::HandleControlMessage) instead of NQEs, so
  // nothing routes them today.
  // nklint-allow(op-routing): control plane rides the CeMessage channel; these reserve §5 wire numbers only.
  // nklint: dir=control
  kRegisterDevice = 64,
  // nklint-allow(op-routing): control plane rides the CeMessage channel; these reserve §5 wire numbers only.
  // nklint: dir=control
  kDeregisterDevice = 65,
  // NSM liveness heartbeat (§5 wire number). The reproduction's heartbeats
  // ride the CeMessage channel (CeOp::kHeartbeat -> RecordNsmHeartbeat); the
  // health-miss flight events stamp this op byte so a post-mortem tail names
  // the protocol verb.
  // nklint: dir=control
  kHeartbeat = 66,
};

// reserved[1] flag on NSM->VM completions: the operation failed inside the
// switch before any consumer saw it, so the payload chunk referenced by
// data_ptr was never consumed — GuestLib must free it and reclaim the send
// credit. Set by CoreEngine-synthesized error completions (never by a real
// NSM, whose completions always carry data_ptr == 0).
constexpr uint8_t kNqeFlagChunkUnconsumed = 1;

// op_data packing helpers for address-carrying ops (ip in high 32 bits,
// port in low 16).
constexpr uint64_t PackAddr(uint32_t ip, uint16_t port) {
  return (static_cast<uint64_t>(ip) << 32) | port;
}
constexpr uint32_t AddrIp(uint64_t op_data) { return static_cast<uint32_t>(op_data >> 32); }
constexpr uint16_t AddrPort(uint64_t op_data) { return static_cast<uint16_t>(op_data & 0xffff); }

// Fields are ordered wide-to-narrow so every member sits at its natural
// alignment and the struct is exactly 32 bytes without packing pragmas —
// packed misaligned fields are UB to bind references to (and slower to
// load on most ISAs). The byte budget matches Figure 3 exactly.
struct Nqe {
  uint64_t op_data = 0;   // operation payload / result
  uint64_t data_ptr = 0;  // offset into the shared hugepage region
  uint32_t vm_sock = 0;   // socket handle in the user VM
  uint32_t size = 0;      // size of the data pointed at
  uint8_t op = 0;         // NqeOp
  uint8_t vm_id = 0;      // originating VM (or NSM for responses)
  uint8_t queue_set = 0;  // queue set the NQE was enqueued on
  uint8_t reserved[5] = {0, 0, 0, 0, 0};

  NqeOp Op() const { return static_cast<NqeOp>(op); }
  void SetOp(NqeOp o) { op = static_cast<uint8_t>(o); }
};

static_assert(sizeof(Nqe) == 32, "NQE must be exactly 32 bytes (paper Figure 3)");

// VM and NSM ids are one byte each, so per-id state lives in fixed arrays of
// kNumIds records indexed by the id.
inline constexpr size_t kNumIds = 256;

// Trace id carried in reserved[3..4] (little-endian 16-bit). The other
// reserved bytes are spoken for: reserved[0] echoes the original op on
// completions, reserved[1] carries the reuseport flag / kNqeFlagChunkUnconsumed,
// reserved[2] carries the NSM-side processing queue set. Id 0 means "not
// traced" — MakeNqe zero-initializes reserved, so every NQE is untraced until
// the sampling tracer stamps it at guest-enqueue (nkobs lifecycle tracing).
constexpr uint16_t NqeTraceId(const Nqe& n) {
  return static_cast<uint16_t>(n.reserved[3] | (n.reserved[4] << 8));
}
inline void SetNqeTraceId(Nqe* n, uint16_t id) {
  n->reserved[3] = static_cast<uint8_t>(id & 0xff);
  n->reserved[4] = static_cast<uint8_t>(id >> 8);
}

inline Nqe MakeNqe(NqeOp op, uint8_t vm_id, uint8_t queue_set, uint32_t vm_sock,
                   uint64_t op_data = 0, uint64_t data_ptr = 0, uint32_t size = 0) {
  Nqe n;
  n.SetOp(op);
  n.vm_id = vm_id;
  n.queue_set = queue_set;
  n.vm_sock = vm_sock;
  n.op_data = op_data;
  n.data_ptr = data_ptr;
  n.size = size;
  return n;
}

std::string NqeOpName(NqeOp op);

}  // namespace netkernel::shm

#endif  // SRC_SHM_NQE_H_
