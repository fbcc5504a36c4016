// Fixture: minimal NqeOp contract mirroring the real src/shm/nqe.h layout.
// Not compiled — consumed only by tools/nklint via tests/nklint_test.cc.
enum class NqeOp : uint8_t {
  // nklint: dir=none
  kInvalid = 0,
  // nklint: dir=guest->nsm carries-chunk completion=kSendResult reclaim=kSendResult guard=send
  kSend = 1,
  // nklint: dir=guest->nsm completion=kOpResult guard=job
  kBind = 2,
  // nklint: dir=nsm->guest ring=completion
  kOpResult = 32,
  // nklint: dir=nsm->guest ring=completion
  kSendResult = 33,
  // nklint: dir=nsm->guest ring=receive carries-chunk
  kRecvData = 34,
};
